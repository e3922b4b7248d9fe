"""Iteration-graph capture & replay (DESIGN.md §12).

CUDA-graph-style batch submission for the steady state: the scheduler
records one full iteration's *resolved* command stream — every kernel,
copy, event dependency and host-clock advance that planning produced —
into an :class:`IterationGraph`, then re-dispatches it ``n`` times as a
pre-lowered macro-command, skipping task construction, plan lookup,
copy-decision memoization and per-task monitor queries entirely.

The replay is *bit-identical* to the eager path, not merely equivalent:

* Every opcode performs the same floating-point arithmetic in the same
  order as :meth:`Engine._dispatch` (durations, channel occupancy and
  engine busy times are precomputed only where the eager expression is a
  pure function of captured values).
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
capture period left behind: the same residency geometry, aggregation
state and consumed read-list shapes. Events are not compared by identity,
so eager work between launches that rebuilds the same structure (a new
producer of the same residency) keeps the fast path.

Workloads do not capture or launch by hand: :class:`Loop` declares one
steady period of calls and drives its graph (the benches, the job
server's workloads and the serving engines all use it).
"""

from __future__ import annotations

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
        #: The invoke-level calls of the period, for the fallback path:
        #: ``(raw, kernel, containers, grid, constants)``.
        self.calls: list[tuple] = []
        #: Whether the capture compiled to a replayable macro-command.
        self.replayable = False
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
        #: that must hold no event)`` — the structure a launch requires.
        self._shape: dict[int, tuple] = {}
        #: did -> how the epilogue leaves the datum as the last lap would:
        #: ``(instances, agg sources, shadow, replaced reads, read tails)``.
        self._exit: dict[int, tuple] = {}

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

        # -- residency fixed point (modulo per-lap event refresh) ------------
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
        shape: dict[int, tuple] = {}
        exits: dict[int, tuple] = {}
        for did in captured:
            plan = self._check_fixed_point(
                entry[did], exit_snap[did], slot_of, consumed.get(did, set())
            )
            if isinstance(plan, str):
                return self._fail(plan)
            shape[did], exits[did] = plan

        # Where each entry event sits, and what the period leaves there.
        holders: dict[Event, list[tuple]] = {}
        after: dict[tuple, Any] = {}
        for did in captured:
            locs = consumed.get(did, set())
            for pos, ev in _positions(did, entry[did], locs):
                if ev is not None:
                    holders.setdefault(ev, []).append(pos)
            for pos, ev in _positions(did, exit_snap[did], locs):
                after[pos] = ev
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

        # Entry events the period leaves in place keep their positions
        # bound together too, whether or not anything waits on them.
        for ev, group in holders.items():
            if any(after[p] is ev for p in group):
                ref(ev)

        engine = sched.node.engine
        topology = sched.node.topology
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
                elif t is KernelLaunch:
                    dev = stream.device
                    devices.add(dev)
                    ops.append(
                        (
                            2,
                            ck,
                            engine.devices[dev].compute,
                            cmd.duration,
                            cmd.label,
                            cmd.payload,
                            dev,
                        )
                    )
                elif t is Memcpy:
                    engines, path, channels = engine._route(
                        cmd.src, cmd.dst, cmd.pageable
                    )
                    duration = (
                        topology.transfer_time(cmd.nbytes, path)
                        + cmd.extra_latency
                    )
                    segchan = tuple(
                        (ch, cmd.nbytes / seg.link.bandwidth)
                        for seg, ch in zip(path, channels)
                    )
                    if cmd.src != HOST:
                        devices.add(cmd.src)
                    if cmd.dst != HOST:
                        devices.add(cmd.dst)
                    ops.append(
                        (
                            3,
                            ck,
                            engines,
                            segchan,
                            duration,
                            cmd.label,
                            cmd.payload,
                            cmd.src,
                            cmd.dst,
                            cmd.nbytes,
                        )
                    )
                elif t is HostOp:
                    ops.append((4, ck, cmd.duration, cmd.label, cmd.payload))
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
        self._touches = list(rec.touches)
        self._refs = refs
        self._slot_refs = sorted(slot_refs.items())
        self._shape = shape
        self._exit = exits
        self.replayable = True
        self.reason = ""

    def _check_fixed_point(
        self,
        en: tuple,
        ex: tuple,
        slot_of: dict[Event, int],
        consumed: set[int],
    ) -> str | tuple:
        """One datum's entry-vs-exit proof. The captured period must leave
        the datum's residency *geometry* and aggregation state exactly
        where it found them, every event reference must be either left in
        place (a pre-capture constant) or refreshed by the period (a window
        event the epilogue re-materializes per lap), and every read list a
        writer consumes must end the period with the shape it started
        with. Returns a failure reason, or the datum's launch structure
        and epilogue plan."""
        e_sid, e_utd, e_mode, e_aggs, e_pend, e_lost, e_shadow, e_marks = en
        x_sid, x_utd, x_mode, x_aggs, x_pend, x_lost, x_shadow, x_marks = ex
        if x_sid < 0:
            return "residency geometry id table is full"
        if e_sid != x_sid:
            return "residency geometry changed across the captured period"
        if e_mode is not x_mode or e_lost != x_lost:
            return "aggregation state changed across the captured period"
        nones: list[tuple[int, int, int]] = []

        def refresh(kind, loc, idx, e_ev, x_ev):
            """Slot refreshing the position per lap, None if it is left
            alone, or a failure reason."""
            if e_ev is None or x_ev is None:
                if e_ev is not x_ev:
                    return (
                        "an event reference appeared or vanished across "
                        "the captured period"
                    )
                nones.append((kind, loc, idx))
                return None
            slot = slot_of.get(x_ev)
            if slot is not None:
                return slot
            if x_ev is not e_ev:
                return (
                    "an up-to-date instance carries an event from "
                    "neither the capture window nor the entry state"
                )
            return None

        insts = []  # same geometry: locations and rects line up
        for (_, e_insts), (x_loc, x_insts) in zip(e_utd, x_utd):
            fresh = []
            for i, ((_, e_ev), (x_rect, x_ev)) in enumerate(
                zip(e_insts, x_insts)
            ):
                slot = refresh(_INST, x_loc, i, e_ev, x_ev)
                if isinstance(slot, str):
                    return slot
                if slot is not None:
                    fresh.append((i, x_rect, slot))
            if fresh:
                insts.append((x_loc, tuple(fresh)))
        if [d for d, _ in e_aggs] != [d for d, _ in x_aggs]:
            return "aggregation sources changed across the captured period"
        aggs = []
        for (d, e_ev), (_, x_ev) in zip(e_aggs, x_aggs):
            slot = refresh(_AGG, d, 0, e_ev, x_ev)
            if isinstance(slot, str):
                return slot
            if slot is not None:
                aggs.append((d, slot))
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

        # Pending reads: a list a writer consumes must end the period
        # holding only window events, with its entry shape (the replay
        # waits on exactly that many); any other list can only grow by a
        # window-event tail (compaction may drop completed entry reads).
        e_pend_map, x_pend_map = dict(e_pend), dict(x_pend)
        e_mark_map, x_mark_map = dict(e_marks), dict(x_marks)
        replace, tails = [], []
        for loc in sorted(consumed):
            x_evs = x_pend_map.get(loc, ())
            slots = tuple(slot_of.get(ev, -1) for ev in x_evs)
            if -1 in slots:
                return (
                    "a consumed pending-read list ends the period with a "
                    "pre-capture event"
                )
            mark = x_mark_map.get(loc)
            if (
                len(x_evs) != len(e_pend_map.get(loc, ()))
                or mark != e_mark_map.get(loc)
            ):
                return (
                    "a consumed pending-read list changed shape across "
                    "the captured period"
                )
            replace.append((loc, slots, mark))
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
        return (
            (
                x_sid,
                x_mode,
                x_lost,
                tuple(d for d, _ in x_aggs),
                tuple((loc, len(slots), mark) for loc, slots, mark in replace),
                tuple(nones),
            ),
            (tuple(insts), tuple(aggs), shadow, tuple(replace), tuple(tails)),
        )

    # -- launch ---------------------------------------------------------------
    def launch(self, n: int = 1) -> float:
        """Re-dispatch the captured period ``n`` times; returns the
        simulated time afterwards (the period's commands are fully
        drained, like ``wait_all``).

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
        entry = self._fast_entry()
        if entry is not None:
            self.fast_launches += 1
            return self._fast(n, *entry)
        for _ in range(n):
            for raw, kernel, containers, grid, constants in self.calls:
                if raw:
                    sched.invoke_unmodified(
                        kernel, *containers, grid=grid, constants=constants
                    )
                else:
                    sched.invoke(
                        kernel, *containers, grid=grid, constants=constants
                    )
        return sched.wait_all()

    # -- fast-path validation -------------------------------------------------
    def _fast_entry(self) -> tuple[dict, list[Event]] | None:
        """The captured datums' monitor states and the events at every
        recorded position when the fast path applies, else None."""
        if not self.replayable:
            return None
        sched = self._sched
        if sched._graph_generation != self.generation:
            return None
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
        # read-list shapes give the same copy decisions and waits.
        states = sched.monitor.states(self._shape)
        for did, (sid, mode, lost, agg, shapes, nones) in self._shape.items():
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
        # Every position group must again hold one recorded event.
        events = []
        for group in self._refs:
            did, kind, loc, idx = group[0]
            ev = _event_at(states[did], kind, loc, idx)
            if ev is None or ev.recorded_at is None:
                return None
            for did, kind, loc, idx in group[1:]:
                if _event_at(states[did], kind, loc, idx) is not ev:
                    return None
            events.append(ev)
        return states, events

    # -- fast path ------------------------------------------------------------
    def _fast(self, n: int, states: dict, refs: list[Event]) -> float:
        sched = self._sched
        node = sched.node
        engine = node.engine
        deltas = self._deltas
        K = self._K
        E = self._E
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
                for mem, buf in touches:
                    mem.touch(buf)
        ref_times = [ev.recorded_at for ev in refs]
        boundary = [0.0] * E  # lap 0's previous-lap slots, by position
        for slot, r in self._slot_refs:
            boundary[slot] = ref_times[r]
        ev_time = engine.run_graph(
            self._programs, n, ck_vals, K, E, boundary, ref_times
        )
        node.host_time = max(h, engine.now)
        self._refresh_monitor(ev_time, n, states)
        sched.plans.graph_hits += n * max(1, len(self.calls))
        return node.time

    def _refresh_monitor(self, ev_time: list, n: int, states: dict) -> None:
        """Epilogue: leave the captured datums' monitor states as the
        final replay lap would have, with fresh :class:`Event` objects.

        Read tails are appended lap by lap through the monitor's own
        compaction, with every replayed event still unrecorded — as in the
        eager submission, where no event of the launch has run yet — and
        the events get their replayed times only afterwards.
        """
        E = self._E
        labels = self._slot_labels
        made: dict[int, Event] = {}  # ev_time index -> event

        def lap_ev(lap: int, slot: int) -> Event:
            k = lap * E + slot
            ev = made.get(k)
            if ev is None:
                ev = made[k] = Event(label=labels[slot])
            return ev

        last = n - 1

        def final(slot: int | None) -> Event | None:
            return None if slot is None else lap_ev(last, slot)

        host_time = self._sched.node.host_time
        for did, (insts, aggs, shadow, replace, tails) in self._exit.items():
            st = states[did]
            utd = st.up_to_date
            for loc, items in insts:
                # Never mutate an _Instance or its list in place: memoized
                # transition templates may share them.
                lst = list(utd[loc])
                for i, rect, slot in items:
                    lst[i] = _Instance(rect, lap_ev(last, slot))
                utd[loc] = lst
            for d, slot in aggs:
                st.agg_sources[d] = lap_ev(last, slot)
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
                for lap in range(n):
                    for s in slots:
                        st.add_read(loc, lap_ev(lap, s), host_time)
        for k, ev in made.items():
            ev.recorded_at = ev_time[k]


class Loop:
    """One steady period of calls on one scheduler, and its graph driver.

    An iterative workload re-submits the same ``period`` calls, one per
    iteration: a ping-pong between two buffers has period 2, a call whose
    containers never change has period 1. :meth:`declare` runs each
    call's ``AnalyzeCall`` once and keeps its container tuple, so
    iteration ``i`` re-invokes ``calls[i % period]``. :meth:`replay`
    captures one period as an :class:`IterationGraph` and launches it;
    the graph belongs to this loop's scheduler, so a workload resuming on
    a new scheduler (a new job-server lease) declares a new loop and
    captures again.
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
        #: Diagnostics: captures performed / periods launched as a graph.
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
