"""Differential oracle for an iteration graph's launch bookkeeping
(DESIGN.md §12).

A fast launch is one generated function: it checks its entry against
stamps (a datum an exit left in a state the graph has verified is not
compared again), reads the entry events inline and writes its exit
through straight-line assignments. This module keeps the
implementations they replaced, which compare every captured datum in
full on every launch and rebuild the exit state from the declarative
``IterationGraph._exit``:

* :func:`entry` — the fast-path verdict and the events at every recorded
  position, or None;
* :func:`refresh` — the exit, applied to whatever states it is given.

:func:`install` runs both next to every launch of every graph that may
take the fast path: the verdicts must agree (the node-level checks behind
the node's epoch included), and after a fast launch the monitor states must
equal what the host-dirty marks' compaction and :func:`refresh` leave on
a copy of the pre-launch states, with new events matched by first
occurrence, label and recorded time, and every pre-launch event (the
entry refs among them) by identity. Each captured datum must carry its
exit's stamp, the same object on every launch of the graph.
"""

from __future__ import annotations

import bisect
import dataclasses
import weakref

from repro.core.graph import IterationGraph, _event_at, _Exit, _snapshot_state
from repro.core.location_monitor import _DatumState, _Instance
from repro.hardware.topology import HOST
from repro.sim.commands import Event
from repro.sim.engine import Engine


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
    """Run the oracle next to every generated launch of every graph
    compiled from now on; returns counters of the checked launches."""
    stats = {"entries": 0, "fast": 0, "exits": 0}
    #: The reference verdict of the launch running, and its last replayed
    #: segment's host checkpoints and event times.
    seen: dict = {}
    #: graph -> captured datum id -> the stamp its first fast launch left.
    stamps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    compile_, launch = IterationGraph._compile, IterationGraph.launch
    run_graph = Engine.run_graph

    def spied_run_graph(self, segment, n, ck_vals, *args):
        ev_time = run_graph(self, segment, n, ck_vals, *args)
        seen["ck"], seen["ev"] = ck_vals, ev_time
        return ev_time

    def spied(run):
        def segment_run(eng, ck, bd, cs, ev):
            seen["ck"], seen["ev"] = ck, ev
            return run(eng, ck, bd, cs, ev)

        return segment_run

    def checked_launch(graph, n=1):
        sched = graph._sched
        if (
            n <= 0 or graph._run is None
            or not (n == 1 or graph.fixed_point)
            or sched.released or sched.node.graph_recorder is not None
        ):
            return launch(graph, n)
        seen["want"] = want = entry(graph)
        stats["entries"] += 1
        fast = graph.fast_launches
        out = launch(graph, n)
        assert (graph.fast_launches > fast) == (want is not None)
        return out

    def checked(graph, n, run):
        want = seen.pop("want")
        if want is None:
            assert run(graph, n) is None
            return None
        states, refs = want
        copies = {did: _clone(states[did]) for did in graph._exit}
        # Keeps every pre-launch event alive, so no new event reuses an id.
        old = {
            id(e): e
            for did in graph._exit
            for e in _events(_snapshot_state(states[did]))
            if e is not None
        }
        old.update((id(e), e) for e in refs)
        segments = [s for s, _, _ in graph._segments]
        runs = [s.run for s in segments]
        for s in segments:
            if s.run is not None:
                s.run = spied(s.run)
        try:
            got = run(graph, n)
        finally:
            for s, r in zip(segments, runs):
                if r is not None:
                    s.run = r
        assert got is not None
        stats["fast"] += 1
        for did, ck in graph._marks:
            copies[did].compact_reads(HOST, seen["ck"][ck])
        refresh(graph, seen["ev"], n, copies, refs)
        stats["exits"] += 1
        seen_got: dict[int, int] = {}
        seen_want: dict[int, int] = {}
        left = stamps.setdefault(graph, {})
        for did in graph._exit:
            st = states[did]
            got_snap = _normalized(_snapshot_state(st), old, seen_got)
            want_snap = _normalized(_snapshot_state(copies[did]), old, seen_want)
            assert got_snap == want_snap, did
            assert type(st.stamp) is _Exit
            assert left.setdefault(did, st.stamp) is st.stamp
        assert len({id(x) for x in left.values()}) == len(left)
        return got

    def checked_compile(self, entry_state):
        compile_(self, entry_state)
        run = self._run
        if run is not None:
            self._run = lambda graph, n: checked(graph, n, run)

    monkeypatch.setattr(IterationGraph, "_compile", checked_compile)
    monkeypatch.setattr(IterationGraph, "launch", checked_launch)
    monkeypatch.setattr(Engine, "run_graph", spied_run_graph)
    return stats
