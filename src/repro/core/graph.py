"""Iteration-graph capture & replay (DESIGN.md §12).

CUDA-graph-style batch submission for the steady state: the scheduler
records one full iteration's *resolved* command stream — every kernel,
copy (region gathers to the host included), event dependency and
host-clock advance that planning produced — into an
:class:`IterationGraph`, then re-dispatches it as a pre-lowered
macro-command, skipping task construction, plan lookup, copy-decision
memoization and per-task monitor queries entirely. A graph is a
*transition* from the monitor structure it was captured in to the state
it left; one whose exit equals its entry (a fixed point) replays ``n``
laps per launch.

The replay is *bit-identical* to the eager path, not merely equivalent:

* Every opcode is the engine's own lowering of its command
  (:meth:`Engine.lower`), and :meth:`Engine.run_graph` dispatches it
  through the same loop as :meth:`Engine.run`: the same floating-point
  arithmetic, in the same order.
* Host-clock checkpoints re-accumulate the captured per-lap advances with
  the same sequential additions the eager submission loop performs.
* Cross-lap event dependencies are resolved by position: a steady-state
  period creates the same events in the same order every lap, and a
  captured wait on an event from before the capture reads the monitor
  position (datum, location, instance or read index) that held it. The
  period leaves either the same event there (a constant) or one of its
  own (``slot``), so a later lap waits on that slot one period earlier.
* Device-LRU touch order and EWMA observer callbacks are replayed so
  every side channel the scheduler might read later has the exact state
  an uncaptured run would have left.

A graph is *invalidated* — and its :meth:`IterationGraph.launch` falls
back to re-invoking the recorded calls through the normal scheduler path,
bit-identically by construction — whenever the steady state it froze no
longer holds: an EWMA rebalance changed segment weights, a device was
retired, a replica was evicted or chunked under memory pressure (all bump
the scheduler's graph generation), straggler windows or pending transfer
faults are still active, or the monitor no longer has the structure the
capture period started from: the same residency geometry, aggregation
state and consumed read-list shapes. Events are not compared by identity,
so eager work between launches that rebuilds the same structure (a new
producer of the same residency) keeps the fast path.

A launch's bookkeeping costs what changed since the last one. Finalization
compiles the graph's entry-event reads and its epilogue (the exit state it
writes back to the monitor) into straight-line Python, shared by graphs of
one structure. The epilogue stamps each datum with its exit; every monitor
mutation clears the stamp, and a datum still carrying one the graph has
verified skips the structural compare.

Workloads do not capture or launch by hand: :class:`Loop` declares one
steady period of calls and drives its graphs (the benches, the job
server's workloads, the serving engines and the cluster's node agents
all use it).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any

from repro.core.location_monitor import _Instance
from repro.errors import GraphCaptureError
from repro.hardware.topology import HOST
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler
    from repro.sim.stream import Stream


class GraphRecorder:
    """Collects one steady-state period as the scheduler submits it.

    Installed as ``node.graph_recorder`` by ``Scheduler.begin_batch``;
    submission behaviour is unchanged, the recorder only mirrors what was
    enqueued (plus the host-clock advances and device-LRU touches the
    replay must reproduce).
    """

    __slots__ = (
        "commands",
        "streams",
        "events",
        "deltas",
        "touches",
        "h_start",
    )

    def __init__(self, host_time: float):
        #: stream id -> [(command, checkpoint index)]; the checkpoint is
        #: the number of host advances seen before submission, so replay
        #: can reconstruct the command's ``earliest_start`` per lap.
        self.commands: dict[int, list[tuple[Any, int]]] = {}
        self.streams: dict[int, "Stream"] = {}
        #: Events created during the capture window, in creation order
        #: (slot s holds the event with sequence number ``S0 + s``).
        self.events: list[Event] = []
        #: Host-clock advances of the period, in order.
        self.deltas: list[float] = []
        #: Submission-time device-LRU touches ``(memory, buffer)``.
        self.touches: list[tuple[Any, Any]] = []
        self.h_start = host_time

    def record(self, stream: "Stream", cmd: Any) -> None:
        sid = stream.id
        cmds = self.commands.get(sid)
        if cmds is None:
            self.streams[sid] = stream
            cmds = self.commands[sid] = []
        cmds.append((cmd, len(self.deltas)))

    def record_event(self, event: Event) -> None:
        self.events.append(event)

    def record_host(self, dt: float) -> None:
        self.deltas.append(dt)


def _snapshot_state(st) -> tuple:
    """Immutable view of one datum's monitor state (events by reference;
    ``st.sid`` must be current, as ``LocationMonitor.states`` leaves it)."""
    shadow = st.agg_shadow
    return (
        st.sid,
        tuple(
            (loc, tuple((i.rect, i.event) for i in insts))
            for loc, insts in st.up_to_date.items()
        ),
        st.agg_mode,
        tuple(st.agg_sources.items()),
        tuple((loc, tuple(evs)) for loc, evs in st.pending_reads.items()),
        st.agg_lost,
        None
        if shadow is None
        else (shadow[0], tuple(shadow[1].items()), shadow[2]),
        tuple(st.read_marks.items()),
    )


def snapshot_monitor(monitor) -> dict[int, tuple]:
    """Snapshot every datum's monitor state, events by reference (capture
    compares the entry and exit snapshots to prove the period is a fixed
    point modulo per-lap event refresh)."""
    return {did: _snapshot_state(st) for did, st in monitor.states().items()}


#: Kinds of a *position* ``(did, kind, loc, idx)``: a place the eager path
#: reads an event from — an up-to-date instance, a pending-aggregation
#: source (``idx`` 0), or an entry of a pending-read list that a writer of
#: the period consumes.
_INST, _AGG, _READ = 0, 1, 2


def _event_at(st, kind: int, loc: int, idx: int):
    if kind == _INST:
        return st.up_to_date[loc][idx].event
    if kind == _AGG:
        return st.agg_sources[loc]
    return st.pending_reads[loc][idx]


def _positions(did: int, snap: tuple, consumed: set[int]):
    """``(position, event)`` for every event of one datum's snapshot the
    eager path may read; ``consumed`` are the locations whose read lists
    the period's writers take."""
    _, utd, _, aggs, pend = snap[:5]
    for loc, insts in utd:
        for i, (_, ev) in enumerate(insts):
            yield (did, _INST, loc, i), ev
    for d, ev in aggs:
        yield (did, _AGG, d, 0), ev
    for loc, evs in pend:
        if loc in consumed:
            for i, ev in enumerate(evs):
                yield (did, _READ, loc, i), ev


def _lists_match(st, shapes: tuple, nones: tuple) -> bool:
    """Whether the datum's consumed read lists have the captured lengths
    and marks, and every ``(kind, loc, idx)`` of ``nones`` holds no
    event."""
    reads, marks = st.pending_reads, st.read_marks
    for loc, length, mark in shapes:
        if len(reads.get(loc, ())) != length or marks.get(loc) != mark:
            return False
    for kind, loc, idx in nones:
        if _event_at(st, kind, loc, idx) is not None:
            return False
    return True


def _matches(st, shape: tuple) -> bool:
    """Whether one datum's monitor state has a graph's entry structure
    (``IterationGraph._shape``)."""
    sid, mode, lost, agg, shapes, nones = shape
    return (
        st.sid == sid
        and st.agg_mode is mode
        and st.agg_lost == lost
        and tuple(st.agg_sources) == agg
        and _lists_match(st, shapes, nones)
    )


class _Exit:
    """One datum's exit in one graph: the stamp that graph's epilogue
    leaves on the datum, which the next monitor mutation clears.
    ``replaced`` are the locations whose read lists the exit replaces."""

    __slots__ = ("replaced",)

    def __init__(self, replaced: frozenset):
        self.replaced = replaced


def _residual(stamp: _Exit, shape: tuple) -> tuple:
    """What a datum still stamped with ``stamp`` must show to match
    ``shape``, once one full compare passed on it: the exit fixes the
    geometry, aggregation state, events' presence and the read lists it
    replaced, but not the lists it appends to or leaves alone. Empty when
    nothing is left to check, else ``(read shapes, nones)``."""
    kept = stamp.replaced
    shapes, nones = shape[4], shape[5]
    shapes = tuple(x for x in shapes if x[0] not in kept)
    nones = tuple(p for p in nones if p[0] == _READ and p[1] not in kept)
    return (shapes, nones) if shapes or nones else ()


@functools.lru_cache(maxsize=256)
def _compiled(src: str):
    """The code object of a graph's generated launch steps
    (``IterationGraph._compile``); graphs of one structure share it."""
    return compile(src, "<graph launch>", "exec")


#: Stamps a graph remembers as verified; past this it starts over (a long
#: lived graph next to re-captured ones would otherwise keep their stamps).
_VERIFIED_LIMIT = 16


class IterationGraph:
    """A captured steady-state period, replayable as one macro-command.

    Produced by ``Scheduler.begin_batch()``/``end_batch()`` (or the
    ``with sched.capture() as g:`` form). :meth:`launch` re-dispatches the
    period ``n`` times; when the frozen steady state no longer holds it
    transparently falls back to re-invoking the recorded calls through
    the normal scheduler path.

    The graph binds to the monitor by *structure*, not by the identity of
    the last producer: per captured datum it keeps the geometry state id,
    the aggregation state and the shape of every read list the period
    consumes, and every wait on an event from before the capture is
    recorded by the position the event held (datum, location, instance or
    read index). A launch re-reads the events at those positions, so
    eager work that leaves the same structure behind — a new producer of
    the same residency — keeps the fast path.
    """

    def __init__(self, scheduler: "Scheduler"):
        self._sched = scheduler
        #: The scheduler calls of the period (invokes and gathers), for
        #: the fallback path: ``(bound method, args, kwargs)``.
        self.calls: list[tuple] = []
        #: Whether the capture compiled to a replayable macro-command.
        self.replayable = False
        #: Whether the period leaves the structure it started from, so
        #: ``launch(n)`` replays ``n`` laps; a transition replays one.
        self.fixed_point = False
        #: Human-readable reason when not replayable.
        self.reason = "capture not finalized"
        #: Scheduler graph generation the capture is valid for; any
        #: weight rebalance / device retirement / eviction / chunking
        #: bumps the scheduler counter and permanently invalidates this.
        self.generation = -1
        self.launches = 0
        self.fast_launches = 0
        self.replayed_laps = 0
        # Compiled state (set by _finalize when replayable):
        self._programs: list[tuple["Stream", list[tuple]]] = []
        self._deltas: list[float] = []
        self._K = 1
        self._E = 0
        self._slot_labels: list[str] = []
        self._devices: set[int] = set()
        self._touches: list[tuple[Any, Any]] = []
        #: Entry-state events the replay reads, each as the positions
        #: that held it at capture; a launch requires each group to hold
        #: one recorded event again. Constant waits (opcode mode 2) index
        #: this list.
        self._refs: list[tuple[tuple, ...]] = []
        #: ``(slot, ref)``: lap 0's previous-lap wait on ``slot`` reads the
        #: event of ``ref``.
        self._slot_refs: list[tuple[int, int]] = []
        #: did -> ``(sid, agg mode, agg lost, agg source devices,
        #: ((loc, length, mark), ...) of consumed read lists, positions
        #: that must hold no event)`` — the entry structure a launch
        #: requires.
        self._shape: dict[int, tuple] = {}
        #: did -> the exit state the epilogue leaves, as the last lap
        #: would: ``(sid, agg mode, agg lost, instances, agg sources,
        #: shadow, replaced reads, read tails)``; each event is None, a
        #: slot ``s >= 0`` or the entry ref ``r`` stored as ``-1 - r``.
        self._exit: dict[int, tuple] = {}
        #: Invokes per lap, counted as the capture records them
        #: (``plans.graph_hits`` counts replayed invokes).
        self.invokes = 0
        #: Generated by ``_compile``: the entry events' reads and the
        #: epilogue's writes.
        self._read_refs = None
        self._write_exit = None
        #: Lap 0's previous-lap event times when no slot reads an entry
        #: ref (all zero).
        self._boundary: list[float] = []
        #: Stamp -> the checks that remain for a datum carrying it
        #: (``_residual``), for every stamp a full compare has passed on.
        self._verified: dict[_Exit, tuple] = {}
        #: Datums compared in full by entry checks (diagnostics).
        self.full_compares = 0

    # -- capture finalization -------------------------------------------------
    def _fail(self, reason: str) -> None:
        self.replayable = False
        self.reason = reason

    def _finalize(
        self,
        rec: GraphRecorder,
        entry: dict[int, tuple],
        war_log: set[tuple[int, int]],
        h_submit_end: float,
        gen0: int,
    ) -> None:
        """Compile the recorded period into per-stream opcode programs and
        prove replayability; on any failed proof the graph stays usable
        through the fallback path only."""
        sched = self._sched
        self.generation = sched._graph_generation
        self.launches = 0
        if gen0 != self.generation:
            return self._fail(
                "steady state changed during capture (weight rebalance, "
                "device retirement, eviction or chunking)"
            )
        if not rec.commands:
            return self._fail("empty capture: no commands were submitted")
        events = rec.events
        E = len(events)
        if E == 0:
            return self._fail("capture produced no events")
        S0 = events[0].seq
        for i, ev in enumerate(events):
            if ev.seq != S0 + i:
                return self._fail("event creation window is not contiguous")
            if not ev.recorded:
                return self._fail(
                    f"captured event {ev.label!r} was never recorded"
                )
        # Host clock must have moved only through host_advance (a recovery
        # or mitigation pass mid-capture jumps it directly).
        h = rec.h_start
        for d in rec.deltas:
            h += d
        if h != h_submit_end:
            return self._fail(
                "host clock advanced outside host_advance during capture"
            )
        slot_of = {ev: i for i, ev in enumerate(events)}

        # -- entry structure and exit state of every touched datum ------------
        monitor = sched.monitor
        exit_snap = snapshot_monitor(monitor)
        consumed: dict[int, set[int]] = {}
        for did, loc in war_log:
            consumed.setdefault(did, set()).add(loc)
        for did in entry:
            if did not in exit_snap:  # pragma: no cover - states persist
                return self._fail("a datum's state vanished during capture")
        captured = []
        for did, ex in exit_snap.items():
            en = entry.get(did)
            if en is None:
                return self._fail(
                    "a datum first touched during capture has no "
                    "steady-state entry snapshot"
                )
            if did in consumed or en != ex:
                captured.append(did)
        # Where each entry event sits; a launch re-reads it there.
        holders: dict[Event, list[tuple]] = {}
        for did in captured:
            for pos, ev in _positions(did, entry[did], consumed.get(did, ())):
                if ev is not None:
                    holders.setdefault(ev, []).append(pos)
        refs: list[tuple[tuple, ...]] = []
        ref_of: dict[Event, int] = {}

        def ref(ev: Event) -> int | None:
            r = ref_of.get(ev)
            if r is None:
                group = holders.get(ev)
                if group is None:
                    return None
                r = ref_of[ev] = len(refs)
                refs.append(tuple(group))
            return r

        shape: dict[int, tuple] = {}
        exits: dict[int, tuple] = {}
        fixed = True
        for did in captured:
            plan = self._datum_plan(
                did, entry[did], exit_snap[did], slot_of,
                consumed.get(did, set()), ref,
            )
            if isinstance(plan, str):
                return self._fail(plan)
            shape[did], exits[did], same = plan
            fixed = fixed and same
        # What a fixed point leaves at each entry position (a later lap
        # waits on it one period earlier).
        after: dict[tuple, Any] = {}
        if fixed:
            for did in captured:
                locs = consumed.get(did, ())
                for pos, ev in _positions(did, exit_snap[did], locs):
                    after[pos] = ev

        engine = sched.node.engine
        slot_refs: dict[int, int] = {}
        devices: set[int] = set()
        programs: list[tuple["Stream", list[tuple]]] = []
        for sid, cmds in rec.commands.items():
            stream = rec.streams[sid]
            ops: list[tuple] = []
            for cmd, ck in cmds:
                t = type(cmd)
                if t is EventWait:
                    ev = cmd.event
                    if ev is None:
                        return self._fail("captured wait without an event")
                    slot = slot_of.get(ev)
                    if slot is not None:
                        ops.append((0, ck, 0, slot))
                        continue
                    if not ev.recorded:
                        return self._fail(
                            f"wait on pre-capture event {ev.label!r} "
                            "that never recorded"
                        )
                    r = ref(ev)
                    if r is None:
                        return self._fail(
                            f"wait on pre-capture event {ev.label!r} the "
                            "monitor holds at no position"
                        )
                    if not fixed:  # one lap: the entry event itself
                        ops.append((0, ck, 2, r))
                        continue
                    nxt = [after.get(p) for p in refs[r]]
                    succ = nxt[0]
                    if any(x is not succ for x in nxt):
                        return self._fail(
                            f"positions of pre-capture event {ev.label!r} "
                            "end the period holding different events"
                        )
                    if succ is ev:  # untouched constant
                        ops.append((0, ck, 2, r))
                        continue
                    slot = slot_of.get(succ)
                    if slot is None or slot_refs.setdefault(slot, r) != r:
                        return self._fail(
                            f"previous-period event {ev.label!r} is not "
                            "refreshed by one captured slot — the warm-up "
                            "iteration was not steady-state"
                        )
                    ops.append((0, ck, 1, slot))
                elif t is EventRecord:
                    slot = slot_of.get(cmd.event)
                    if slot is None:
                        return self._fail(
                            "captured record of a pre-capture event"
                        )
                    ops.append((1, ck, slot))
                elif t in (KernelLaunch, Memcpy, HostOp):
                    if t is KernelLaunch:
                        devices.add(stream.device)
                    elif t is Memcpy:
                        devices.update(
                            d for d in (cmd.src, cmd.dst) if d != HOST
                        )
                    op = engine.lower(cmd, stream.device)
                    ops.append((op[0], ck, *op[2:]))
                else:
                    return self._fail(
                        f"unreplayable command type {t.__name__}"
                    )
            programs.append((stream, ops))

        self._programs = programs
        self._deltas = list(rec.deltas)
        self._K = len(rec.deltas) + 1
        self._E = E
        self._slot_labels = [ev.label for ev in events]
        self._devices = devices
        self._touches = [(mem.touch, buf) for mem, buf in rec.touches]
        self._refs = refs
        self._slot_refs = sorted(slot_refs.items())
        self._boundary = [0.0] * E
        self._shape = shape
        self._exit = exits
        self._compile(entry)
        self.fixed_point = fixed
        self.replayable = True
        self.reason = ""

    def _datum_plan(
        self,
        did: int,
        en: tuple,
        ex: tuple,
        slot_of: dict[Event, int],
        consumed: set[int],
        ref,
    ) -> str | tuple:
        """One datum's entry structure, exit state and whether the period
        is a fixed point for it.

        Every event the period leaves must be re-materializable: none, a
        window event (the epilogue creates a fresh one per slot) or an
        entry event (``ref`` binds it to the positions that held it, which
        a launch re-reads). A read list a writer consumes must end the
        period holding only window events; any other list may only grow by
        a tail of window events (compaction may drop completed entry
        reads). The datum is a fixed point when the exit has the entry's
        structure and every event is left in place or refreshed by a slot,
        so lap ``k + 1`` starts where lap ``k`` started. Returns a failure
        reason, or ``(entry structure, exit state, fixed point)``."""
        e_sid, _, e_mode, e_aggs, e_pend, e_lost, e_shadow, e_marks = en
        x_sid, x_utd, x_mode, x_aggs, x_pend, x_lost, x_shadow, x_marks = ex
        if e_sid < 0 or x_sid < 0:
            return "residency geometry id table is full"

        def source(ev):
            """None, a slot ``s >= 0`` or an entry ref ``r`` as ``-1 - r``;
            False if the event is neither a window nor an entry event."""
            if ev is None:
                return None
            s = slot_of.get(ev)
            if s is not None:
                return s
            r = ref(ev)
            return False if r is None else -1 - r

        insts = []
        for loc, x_insts in x_utd:
            row = []
            for rect, ev in x_insts:
                src = source(ev)
                if src is False:
                    return (
                        "an up-to-date instance carries an event from "
                        "neither the capture window nor the entry state"
                    )
                row.append((rect, src))
            insts.append((loc, tuple(row)))
        aggs = []
        for d, ev in x_aggs:
            src = source(ev)
            if src is False:
                return (
                    "an aggregation source carries an event from neither "
                    "the capture window nor the entry state"
                )
            aggs.append((d, src))
        # An aggregation shadow is either the period's own (partials and
        # aggregation both captured) or left alone.
        shadow = None
        if x_shadow is not None:
            mode, sources, hev = x_shadow
            if all(
                ev is None or ev in slot_of
                for ev in (hev, *(ev for _, ev in sources))
            ):
                shadow = (
                    mode,
                    tuple((d, slot_of.get(ev)) for d, ev in sources),
                    slot_of.get(hev),
                )
            elif x_shadow == e_shadow:
                shadow = "keep"
            else:
                return "aggregation shadow changed across the captured period"

        e_pend_map, x_pend_map = dict(e_pend), dict(x_pend)
        e_mark_map, x_mark_map = dict(e_marks), dict(x_marks)
        replace, shapes = [], []
        for loc in sorted(consumed):
            x_evs = x_pend_map.get(loc, ())
            slots = tuple(slot_of.get(ev, -1) for ev in x_evs)
            if -1 in slots:
                return (
                    "a consumed pending-read list ends the period with a "
                    "pre-capture event"
                )
            replace.append((loc, slots, x_mark_map.get(loc)))
            shapes.append(
                (loc, len(e_pend_map.get(loc, ())), e_mark_map.get(loc))
            )
        tails = []
        for loc, x_evs in x_pend:
            if loc in consumed:
                continue
            k = len(x_evs)
            while k and x_evs[k - 1] in slot_of:
                k -= 1
            if k and not e_pend_map.get(loc):
                return "a pending-read list grew by a pre-capture event"
            if k < len(x_evs):
                tails.append(
                    (loc, tuple(slot_of[ev] for ev in x_evs[k:]))
                )
        for loc, e_evs in e_pend:
            if e_evs and loc not in x_pend_map and loc not in consumed:
                return "a pending-read list vanished without a writer"

        at = dict(_positions(did, en, consumed))
        nones = tuple(pos[1:] for pos, ev in at.items() if ev is None)
        fixed = (
            e_sid == x_sid
            and e_mode is x_mode
            and e_lost == x_lost
            and [d for d, _ in e_aggs] == [d for d, _ in x_aggs]
            and all(
                len(slots) == n and mark == e_mark
                for (_, slots, mark), (_, n, e_mark) in zip(replace, shapes)
            )
            and all(
                (ev is None) == (at[pos] is None)
                and (ev is None or ev in slot_of or ev is at[pos])
                for pos, ev in _positions(did, ex, consumed)
            )
        )
        return (
            (
                e_sid,
                e_mode,
                e_lost,
                tuple(d for d, _ in e_aggs),
                tuple(shapes),
                nones,
            ),
            (
                x_sid,
                x_mode,
                x_lost,
                tuple(insts),
                tuple(aggs),
                shadow,
                tuple(replace),
                tuple(tails),
            ),
            fixed,
        )

    def _compile(self, entry: dict[int, tuple]) -> None:
        """Lower the refs and exits into the Python code a launch runs:
        ``read_refs`` for the entry check and ``write_exit`` for the
        epilogue. The source spells out the structure (list indices and
        slots) and binds every value (datum ids, locations, geometry ids,
        rects, labels, stamps) by name, so graphs of one structure share
        the compiled code — serving's replicas, one per GPU, among them."""
        ns: dict[str, Any] = {"Event": Event, "I": _Instance}

        def const(value) -> str:
            """A name bound to ``value`` in the generated code."""
            name = f"c{len(ns) - 2}"
            ns[name] = value
            return name

        src = self._refs_source(const) + self._exit_source(const, entry)
        exec(_compiled(src), ns)
        self._read_refs = ns["read_refs"]
        self._write_exit = ns["write_exit"]

    def _refs_source(self, const) -> str:
        """``read_refs(states)``: the event each ref group holds at all of
        its positions, or None when a group does not hold one recorded
        event."""
        lines = []
        names: dict[int, str] = {}

        def at(did, kind, loc, idx) -> str:
            st = names.get(did)
            if st is None:
                st = names[did] = f"s{len(names)}"
                lines.append(f"{st} = states[{const(did)}]")
            if kind == _INST:
                return f"{st}.up_to_date[{const(loc)}][{idx}].event"
            if kind == _AGG:
                return f"{st}.agg_sources[{const(loc)}]"
            return f"{st}.pending_reads[{const(loc)}][{idx}]"

        for r, (first, *rest) in enumerate(self._refs):
            lines.append(f"e{r} = {at(*first)}")
            lines.append(
                f"if e{r} is None or e{r}.recorded_at is None"
                + "".join(f" or {at(*pos)} is not e{r}" for pos in rest)
                + ": return None"
            )
        lines.append(
            "return [%s]" % ", ".join(f"e{r}" for r in range(len(self._refs)))
        )
        return "def read_refs(states):\n" + "".join(
            f"    {line}\n" for line in lines
        )

    def _carries(self, did: int, en: tuple) -> dict[tuple, int]:
        """``(loc, rect, source) -> idx``: the entry instances of one datum
        an exit row may carry over, because the entry check guarantees
        their event — None at a required-none position, an entry ref at
        one of its group's positions."""
        utd = dict(en[1])
        out: dict[tuple, int] = {}
        for kind, loc, idx in self._shape[did][5]:
            if kind == _INST:
                out.setdefault((loc, utd[loc][idx][0], None), idx)
        for r, group in enumerate(self._refs):
            for d, kind, loc, idx in group:
                if d == did and kind == _INST:
                    out.setdefault((loc, utd[loc][idx][0], -1 - r), idx)
        return out

    def _exit_source(self, const, entry: dict[int, tuple]) -> str:
        """``write_exit(states, refs, ev_time, n, host_time)``, the
        epilogue: it makes the launch's events and writes every captured
        datum's exit in one pass of assignments.

        An exit instance whose entry instance the launch finds unchanged —
        a None event at a required-none position, or an entry ref at one
        of its group's positions — is carried over, and a location whose
        instances all are, in order, keeps its list."""
        E = self._E
        labels = self._slot_labels
        tail = sorted({s for x in self._exit.values() for _, t in x[7] for s in t})
        tail_at = {s: j for j, s in enumerate(tail)}
        done: set[int] = set()  # last-lap slots outside read tails

        def val(src) -> str:
            """One exit event (``_datum_plan``'s encoding) as code."""
            if src is None:
                return "None"
            if src < 0:
                return f"refs[{-1 - src}]"
            if src in tail_at:
                return f"last[{tail_at[src]}]"
            done.add(src)
            return f"v{src}"

        def mapping(pairs) -> str:
            return "{%s}" % ", ".join(
                f"{const(d)}: {val(src)}" for d, src in pairs
            )

        body: list[str] = []
        for did, exit_state in self._exit.items():
            sid, mode, lost, insts, aggs, shadow, replace, tails = exit_state
            carries = self._carries(did, entry[did])
            e_len = {loc: len(row) for loc, row in entry[did][1]}
            locs = []
            for loc, row in insts:
                at = const(loc)
                items = []
                for rect, src in row:
                    i = carries.pop((loc, rect, src), None)
                    items.append(
                        f"I({const(rect)}, {val(src)})"
                        if i is None else f"old[{at}][{i}]"
                    )
                carried = [f"old[{at}][{i}]" for i in range(e_len.get(loc, 0))]
                if loc in e_len and items == carried:
                    locs.append(f"{at}: old[{at}]")
                else:
                    locs.append(f"{at}: [{', '.join(items)}]")
            body += [
                f"st = states[{const(did)}]",
                "old = st.up_to_date",
                "st.up_to_date = {%s}" % ", ".join(locs),
                f"st.sid = {const(sid)}",
                f"st.agg_mode = {const(mode)}",
                f"st.agg_lost = {const(lost)}",
                f"st.agg_sources = {mapping(aggs)}",
            ]
            if shadow is None:
                body.append("st.agg_shadow = None")
            elif shadow != "keep":
                smode, sources, hev = shadow
                body.append(
                    f"st.agg_shadow = ({const(smode)}, {mapping(sources)}, "
                    f"{val(hev)})"
                )
            for loc, slots, mark in replace:
                at = const(loc)
                body.append(
                    f"st.pending_reads[{at}] = [{', '.join(map(val, slots))}]"
                    if slots else f"st.pending_reads.pop({at}, None)"
                )
                body.append(
                    f"st.read_marks.pop({at}, None)" if mark is None
                    else f"st.read_marks[{at}] = {const(mark)}"
                )
            for loc, slots in tails:  # lap by lap, as eager submission does
                at = const(loc)
                body.append("for evs in laps:")
                body += [
                    f"    st.add_read({at}, evs[{tail_at[s]}], host_time)"
                    for s in slots
                ]
            stamp = _Exit(frozenset(loc for loc, _, _ in replace))
            body.append(f"st.stamp = {const(stamp)}")
        head = [f"b = (n - 1) * {E}"] + [
            f"v{s} = Event({const(labels[s])}, ev_time[b + {s}])"
            for s in sorted(done)
        ]
        times = []
        if tail:
            head += [
                "laps = [[Event(label) for label in %s] for _ in range(n)]"
                % const(tuple(labels[s] for s in tail)),
                "last = laps[-1]",
            ]
            times = ["for lap, evs in enumerate(laps):", f"    b = lap * {E}"]
            times += [
                f"    evs[{j}].recorded_at = ev_time[b + {s}]"
                for j, s in enumerate(tail)
            ]
        return "def write_exit(states, refs, ev_time, n, host_time):\n" + "".join(
            f"    {line}\n" for line in head + body + times
        )

    @property
    def expired(self) -> bool:
        """Whether no launch can take the fast path any more: the capture
        did not compile, or the scheduler's steady state changed since."""
        return (
            not self.replayable
            or self._sched._graph_generation != self.generation
        )

    # -- launch ---------------------------------------------------------------
    def launch(self, n: int = 1) -> float:
        """Re-dispatch the captured period ``n`` times; returns the
        simulated time afterwards (the period's commands are fully
        drained, like ``wait_all``). A transition graph replays one lap
        only: ``n > 1`` takes the fallback.

        Uses the pre-lowered macro-command when the frozen steady state
        still holds; otherwise falls back to re-invoking the recorded
        calls through the normal scheduler path (bit-identical results
        either way — the fast path only skips host-side work).
        """
        sched = self._sched
        if sched._released:
            # The scheduler's lease ended (job-server preemption,
            # DESIGN.md §13): its streams are gone from the node and its
            # buffers are freed, so neither the macro-command nor the
            # eager fallback has anything valid to drive. The workload
            # must re-capture on the scheduler of its next lease.
            raise GraphCaptureError(
                "iteration graph belongs to a released scheduler; "
                "re-capture after resuming on a live scheduler"
            )
        if sched.node.graph_recorder is not None:
            raise GraphCaptureError(
                "cannot launch an iteration graph while a capture is "
                "recording"
            )
        if n <= 0:
            return sched.node.time
        self.launches += 1
        self.replayed_laps += n
        entry = (
            self._fast_entry() if n == 1 or self.fixed_point else None
        )
        if entry is not None:
            self.fast_launches += 1
            return self._fast(n, *entry)
        for _ in range(n):
            for fn, args, kwargs in self.calls:
                fn(*args, **kwargs)
        return sched.wait_all()

    # -- fast-path validation -------------------------------------------------
    def _fast_entry(self) -> tuple[dict, list[Event]] | None:
        """The captured datums' monitor states and the events at every
        recorded position when the fast path applies, else None."""
        if self.expired:
            return None
        sched = self._sched
        node = sched.node
        # Anything still queued means un-drained foreign work; the replay
        # assumes quiescent streams.
        for s in node.streams:
            if s.commands:
                return None
        # The replay skips per-dispatch fault checks, so every permanent
        # failure must already have happened, on no device the graph
        # uses, and nothing else in the plan may be armed. Fault counters
        # are not replayed: every spec is exhausted by now and counts only
        # grow, so no later dispatch's outcome depends on them.
        now = node.time
        for d, ft in node.engine.dead.items():
            if ft > now or d in self._devices:
                return None
        if node.faults.armed(now):
            return None
        # An EWMA drift that would flip weights on the next eager invoke
        # must take the slow path (which then bumps the generation).
        m = sched._mitigator
        if m is not None and m.weights() != sched._weights:
            return None
        # Structure: the same geometry, aggregation state and consumed
        # read-list shapes give the same copy decisions and waits. A datum
        # still stamped with an exit this graph verified holds that exit's
        # structure; only the consumed read lists the exit did not replace
        # are read again.
        states = sched.monitor.states(self._shape)
        verified = self._verified
        for did, shape in self._shape.items():
            st = states.get(did)
            if st is None:
                return None
            stamp = st.stamp
            rest = None if stamp is None else verified.get(stamp)
            if rest is None:
                self.full_compares += 1
                if not _matches(st, shape):
                    return None
                if stamp is not None:
                    if len(verified) >= _VERIFIED_LIMIT:
                        verified.clear()
                    verified[stamp] = _residual(stamp, shape)
            elif rest and not _lists_match(st, rest[0], rest[1]):
                return None
        # Every position group must again hold one recorded event.
        events = self._read_refs(states)
        return None if events is None else (states, events)

    # -- fast path ------------------------------------------------------------
    def _fast(self, n: int, states: dict, refs: list[Event]) -> float:
        sched = self._sched
        node = sched.node
        engine = node.engine
        deltas = self._deltas
        # Host checkpoints: the eager submission loop's host_time after
        # each advance, re-accumulated with the same sequential additions.
        ck_vals: list[float] = []
        h = node.host_time
        for _ in range(n):
            ck_vals.append(h)
            for d in deltas:
                h += d
                ck_vals.append(h)
        # Submission-time LRU touches (all laps' submissions precede the
        # drain in the eager order; dispatch-time touches replay through
        # the re-executed payload closures).
        touches = self._touches
        if touches:
            for _ in range(n):
                for touch, buf in touches:
                    touch(buf)
        ref_times = [ev.recorded_at for ev in refs]
        boundary = self._boundary  # lap 0's previous-lap slots, by position
        if self._slot_refs:
            boundary = boundary[:]
            for slot, r in self._slot_refs:
                boundary[slot] = ref_times[r]
        ev_time = engine.run_graph(
            self._programs, n, ck_vals, self._K, self._E, boundary, ref_times
        )
        node.host_time = max(h, engine.now)
        self._epilogue(ev_time, n, states, refs)
        sched.plans.graph_hits += n * self.invokes
        return node.time

    def _epilogue(
        self, ev_time: list, n: int, states: dict, refs: list[Event]
    ) -> None:
        """Leave the captured datums' monitor states as the final replay
        lap would have, through the code ``_exit_source`` generated, and
        stamp each datum with its exit.

        The exit holds a fresh :class:`Event` for every slot the last lap
        leaves in the monitor, the launch's entry events for its refs, and
        None. Read tails are appended lap by lap through the monitor's own
        compaction, with their events still unrecorded — as in the eager
        submission, where no event of the launch has run yet — and get
        their replayed times only afterwards; no compaction reads the
        other events, which are made with theirs.
        """
        self._write_exit(
            states, refs, ev_time, n, self._sched.node.host_time
        )


class Loop:
    """One steady period of calls on one scheduler, and its graph driver.

    An iterative workload re-submits the same ``period`` calls, one per
    iteration: a ping-pong between two buffers has period 2, a call whose
    containers never change has period 1. :meth:`declare` runs each
    call's ``AnalyzeCall`` once and keeps its container tuple, so
    iteration ``i`` re-invokes ``calls[i % period]``. :meth:`replay`
    captures one period as an :class:`IterationGraph` and launches it;
    :meth:`tick` runs one iteration at a time, each phase through its own
    single-iteration graph. The graphs belong to this loop's scheduler,
    so a workload resuming on a new scheduler (a new job-server lease, a
    rebuilt cluster node) declares a new loop and captures again.
    """

    def __init__(self, sched: "Scheduler", kernel, calls, outs, grid=None):
        if len(calls) != len(outs):
            raise ValueError("need one output per call of the period")
        self.sched = sched
        self.kernel = kernel
        self.calls = calls
        self.outs = outs
        self.grid = grid
        #: Iterations before the submitted calls repeat.
        self.period = len(calls)
        self._invoke = sched.invoke_unmodified if kernel.raw else sched.invoke
        #: The captured period, once :meth:`replay` has run.
        self.graph: IterationGraph | None = None
        #: Per phase of the period, ``(gathers, graph or None)`` once its
        #: first tick ran (``tick``).
        self.phases: list[tuple | None] = [None] * self.period
        #: Diagnostics: captures performed / periods (or ticks) launched
        #: as a graph.
        self.captures = 0
        self.replayed = 0

    @classmethod
    def declare(cls, sched, kernel, calls, outs, grid=None) -> "Loop":
        """Analyze each call of the period once and return its loop;
        ``calls`` holds one container tuple and ``outs`` one output datum
        per phase of the period."""
        for call in calls:
            sched.analyze_call(kernel, *call, grid=grid)
        return cls(sched, kernel, tuple(calls), tuple(outs), grid)

    def step(self, i: int):
        """Submit iteration ``i``; returns its task handle."""
        return self._invoke(
            self.kernel, *self.calls[i % self.period], grid=self.grid
        )

    def out(self, i: int):
        """The datum iteration ``i`` writes."""
        return self.outs[i % self.period]

    def warm_up(self, start: int | None = None) -> None:
        """Submit the period from iteration ``start`` and drain it: pays
        the host->device distribution of the inputs and leaves the
        monitor in the steady state a capture freezes. Without ``start``,
        iteration 0 alone (the benches' warm-up, after which their drivers
        submit from iteration 1)."""
        lo = start or 0
        for i in range(lo, lo + (1 if start is None else self.period)):
            self.step(i)
        self.sched.wait_all()

    def replay(self, start: int, n: int) -> None:
        """Run ``n`` periods from iteration ``start`` through the iteration
        graph and drain them. A loop holding no graph yet captures the
        first of them and launches the other ``n - 1``."""
        if n <= 0:
            return
        if self.graph is None:
            with self.sched.capture() as graph:
                for i in range(start, start + self.period):
                    self.step(i)
            self.graph = graph
            self.captures += 1
            n -= 1
        if n:
            self.graph.launch(n)
            self.replayed += n

    def tick(self, i: int, gathers: tuple = ()) -> float:
        """Run iteration ``i``, gather the ``gathers`` regions of its
        output to the host and drain; returns the node time.

        Iteration ``i`` starts from where eager work between ticks left the
        monitor (host writes of ghost rows, say), so it is replayed as a
        *transition*: each phase of the period holds one single-iteration
        graph, launched once per tick, whose entry check covers that work.
        A phase's first tick runs eagerly (it still distributes the
        inputs) and its second is captured; a scheduler that cannot
        capture runs every tick eagerly. A launch whose entry state does
        not hold takes the eager fallback and the graph is kept; a graph
        that has :attr:`~IterationGraph.expired` is dropped, and its phase
        starts over like a new one.
        """
        k = i % self.period
        sched = self.sched
        ph = self.phases[k]
        if ph is not None and (ph[0] != gathers or (
            ph[1] is not None and ph[1].expired
        )):
            ph = None
        if ph is None or not sched.capturable:
            self.phases[k] = (gathers, None)
            self._tick(i, gathers)
            return sched.wait_all()
        graph = ph[1]
        if graph is None:
            with sched.capture() as graph:
                self._tick(i, gathers)
            self.captures += 1
            self.phases[k] = (gathers, graph)
            return sched.node.time
        self.replayed += 1
        return graph.launch(1)

    def _tick(self, i: int, gathers: tuple) -> None:
        self.step(i)
        out = self.out(i)
        for region in gathers:
            self.sched.gather_region(out, region)
