"""Differential oracle for an iteration graph's launch bookkeeping
(DESIGN.md §12).

A fast launch checks its entry against stamps (a datum an epilogue left
in a state the graph has verified is not compared again) and writes its
exit through a compiled patch. This module keeps the implementations they
replaced, which compare every captured datum in full on every launch and
rebuild the exit state from the declarative ``IterationGraph._exit``:

* :func:`entry` — the fast-path verdict and the events at every recorded
  position, or None;
* :func:`refresh` — the epilogue, applied to whatever states it is given.

:func:`install` runs both next to the graph's own on every launch: the
verdicts and entry events must agree, and after each epilogue the monitor
states must equal what :func:`refresh` leaves on a copy of the pre-launch
states, with new events matched by first occurrence, label and recorded
time, and every pre-launch event (the entry refs among them) by identity.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro.core.graph import IterationGraph, _event_at, _snapshot_state
from repro.core.location_monitor import _DatumState, _Instance
from repro.sim.commands import Event


def entry(graph: IterationGraph):
    """The fast-path verdict with every datum compared in full:
    ``(states, events)`` when a launch may replay, else None."""
    if graph.expired:
        return None
    sched = graph._sched
    node = sched.node
    for s in node.streams:
        if s.commands:
            return None
    now = node.time
    for d, ft in node.engine.dead.items():
        if ft > now or d in graph._devices:
            return None
    if node.faults.armed(now):
        return None
    m = sched._mitigator
    if m is not None and m.weights() != sched._weights:
        return None
    states = sched.monitor.states(graph._shape)
    for did, (sid, mode, lost, agg, shapes, nones) in graph._shape.items():
        st = states.get(did)
        if (
            st is None
            or st.sid != sid
            or st.agg_mode is not mode
            or st.agg_lost != lost
            or tuple(st.agg_sources) != agg
        ):
            return None
        reads, marks = st.pending_reads, st.read_marks
        for loc, length, mark in shapes:
            if len(reads.get(loc, ())) != length or marks.get(loc) != mark:
                return None
        for kind, loc, idx in nones:
            if _event_at(st, kind, loc, idx) is not None:
                return None
    events = []
    for group in graph._refs:
        did, kind, loc, idx = group[0]
        ev = _event_at(states[did], kind, loc, idx)
        if ev is None or ev.recorded_at is None:
            return None
        for did, kind, loc, idx in group[1:]:
            if _event_at(states[did], kind, loc, idx) is not ev:
                return None
        events.append(ev)
    return states, events


def refresh(
    graph: IterationGraph, ev_time: list, n: int, states: dict, refs: list
) -> None:
    """Leave ``states`` as the final replay lap would have, rebuilding
    every captured datum's exit state from ``graph._exit``."""
    E = graph._E
    labels = graph._slot_labels
    made: dict[int, Event] = {}

    def lap_ev(lap: int, slot: int) -> Event:
        k = lap * E + slot
        ev = made.get(k)
        if ev is None:
            ev = made[k] = Event(label=labels[slot])
        return ev

    last = n - 1

    def final(src):
        if src is None:
            return None
        return lap_ev(last, src) if src >= 0 else refs[-1 - src]

    host_time = graph._sched.node.host_time
    # Read tails per segment of the period: appended after the events of
    # the segments before them (drained by a host sync) have their times.
    cuts = graph._cuts
    appends: list[list] = [[] for _ in range(len(cuts) + 1)]
    for did, exit_state in graph._exit.items():
        sid, mode, lost, insts, aggs, shadow, replace, tails = exit_state
        st = states[did]
        st.up_to_date = {
            loc: [_Instance(rect, final(src)) for rect, src in row]
            for loc, row in insts
        }
        st.sid = sid
        st.agg_mode = mode
        st.agg_lost = lost
        st.agg_sources = {d: final(src) for d, src in aggs}
        if shadow is None:
            st.agg_shadow = None
        elif shadow != "keep":
            mode, sources, hev = shadow
            st.agg_shadow = (
                mode, {d: final(s) for d, s in sources}, final(hev)
            )
        for loc, slots, mark in replace:
            if slots:
                st.pending_reads[loc] = [lap_ev(last, s) for s in slots]
            else:
                st.pending_reads.pop(loc, None)
            if mark is None:
                st.read_marks.pop(loc, None)
            else:
                st.read_marks[loc] = mark
        for loc, slots in tails:
            for g in range(len(appends)):
                mine = [s for s in slots if bisect.bisect_right(cuts, s) == g]
                if mine:
                    appends[g].append((st, loc, mine))
    for segment in appends:
        for st, loc, slots in segment:
            for lap in range(n):
                for s in slots:
                    st.add_read(loc, lap_ev(lap, s), host_time)
        for _, _, slots in segment:
            for lap in range(n):
                for s in slots:
                    lap_ev(lap, s).recorded_at = ev_time[lap * E + s]
    for k, ev in made.items():
        ev.recorded_at = ev_time[k]


def _clone(st: _DatumState) -> _DatumState:
    """A copy whose containers the oracle may mutate (instances and
    events are shared: neither is mutated in place)."""
    return dataclasses.replace(
        st,
        up_to_date={loc: list(v) for loc, v in st.up_to_date.items()},
        agg_sources=dict(st.agg_sources),
        pending_reads={loc: list(v) for loc, v in st.pending_reads.items()},
        read_marks=dict(st.read_marks),
    )


def _events(snap: tuple):
    """Every event of a snapshot, in snapshot order."""
    _, utd, _, aggs, pend, _, shadow, _ = snap
    for _, insts in utd:
        for _, ev in insts:
            yield ev
    for _, ev in aggs:
        yield ev
    for _, evs in pend:
        yield from evs
    if shadow is not None:
        for _, ev in shadow[1]:
            yield ev
        yield shadow[2]


def _normalized(snap: tuple, old: dict[int, Event], seen: dict) -> tuple:
    """A snapshot with each event replaced by ``("old", id)`` if it
    existed before the launch, else ``("new", first occurrence in
    ``seen``, label, recorded time)``."""

    def ev(e):
        if e is None:
            return None
        if id(e) in old:
            return "old", id(e)
        return "new", seen.setdefault(id(e), len(seen)), e.label, e.recorded_at

    sid, utd, mode, aggs, pend, lost, shadow, marks = snap
    return (
        sid,
        tuple((loc, tuple((r, ev(e)) for r, e in insts)) for loc, insts in utd),
        mode,
        tuple((d, ev(e)) for d, e in aggs),
        tuple((loc, tuple(ev(e) for e in evs)) for loc, evs in pend),
        lost,
        None if shadow is None else (
            shadow[0], tuple((d, ev(e)) for d, e in shadow[1]), ev(shadow[2])
        ),
        marks,
    )


def install(monkeypatch) -> dict:
    """Run the oracle next to every launch's entry check and epilogue of
    every graph; returns counters of the checked launches."""
    stats = {"entries": 0, "fast": 0, "epilogues": 0}
    fast_entry, epilogue = IterationGraph._fast_entry, IterationGraph._epilogue

    def checked_entry(self):
        want = entry(self)
        got = fast_entry(self)
        stats["entries"] += 1
        assert (got is None) == (want is None), (got, want)
        if got is not None:
            stats["fast"] += 1
            assert all(a is b for a, b in zip(got[1], want[1]))
            assert len(got[1]) == len(want[1])
        return got

    def checked_epilogue(self, ev_time, n, states, refs):
        copies = {did: _clone(states[did]) for did in self._exit}
        # Keeps every pre-launch event alive, so no new event reuses an id.
        old = {
            id(e): e
            for did in self._exit
            for e in _events(_snapshot_state(states[did]))
            if e is not None
        }
        old.update((id(e), e) for e in refs)
        epilogue(self, ev_time, n, states, refs)
        refresh(self, ev_time, n, copies, refs)
        stats["epilogues"] += 1
        seen_got: dict[int, int] = {}
        seen_want: dict[int, int] = {}
        for did in self._exit:
            got = _normalized(_snapshot_state(states[did]), old, seen_got)
            want = _normalized(_snapshot_state(copies[did]), old, seen_want)
            assert got == want, did

    monkeypatch.setattr(IterationGraph, "_fast_entry", checked_entry)
    monkeypatch.setattr(IterationGraph, "_epilogue", checked_epilogue)
    return stats
