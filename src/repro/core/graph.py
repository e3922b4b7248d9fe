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
* Cross-lap event dependencies are resolved through the global event
  creation sequence: a steady-state period creates the same events in the
  same order every lap, so a captured wait on an event created ``k``
  slots before the capture window is "the same slot, one period earlier".
* Device-LRU touch order and EWMA observer callbacks are replayed so
  every side channel the scheduler might read later has the exact state
  an uncaptured run would have left.

A graph is *invalidated* — and its :meth:`IterationGraph.launch` falls
back to re-invoking the recorded calls through the normal scheduler path,
bit-identically by construction — whenever the steady state it froze no
longer holds: an EWMA rebalance changed segment weights, a device was
retired, a replica was evicted or chunked under memory pressure (all bump
the scheduler's graph generation), straggler windows or pending transfer
faults are still active, or the residency state the capture period left
behind no longer matches.
"""

from __future__ import annotations

import re
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

#: Task names embed a global invocation id (``gol#42@gpu1``) that differs
#: between any two invocations; strip it when comparing event labels
#: across laps.
_TASK_ID = re.compile(r"#\d+")


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
    """Immutable view of one datum's monitor state (events by reference)."""
    shadow = st.agg_shadow
    return (
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
    )


def snapshot_monitor(monitor) -> dict[int, tuple]:
    """Snapshot every datum's residency state (used by capture begin/end
    to prove the period is a fixed point modulo per-lap event refresh)."""
    return {did: _snapshot_state(st) for did, st in monitor._state.items()}


class IterationGraph:
    """A captured steady-state period, replayable as one macro-command.

    Produced by ``Scheduler.begin_batch()``/``end_batch()`` (or the
    ``with sched.capture() as g:`` form). :meth:`launch` re-dispatches the
    period ``n`` times; when the frozen steady state no longer holds it
    transparently falls back to re-invoking the recorded calls through
    the normal scheduler path.
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
        self._const_events: list[Event] = []
        self._boundary_times: list[float] = []
        self._slot_events: list[Event] = []
        self._slot_of: dict[Event, int] = {}
        self._slot_labels: list[str] = []
        self._devices: set[int] = set()
        self._touches: list[tuple[Any, Any]] = []
        self._expected: dict[int, tuple] = {}
        #: (id(datum), loc) -> ("replace", slots) | ("tail", slots); locs
        #: whose pending-read lists the epilogue must rebuild or extend.
        self._pending_plan: dict[tuple[int, int], tuple[str, tuple]] = {}

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
        norm_labels = [_TASK_ID.sub("", ev.label) for ev in events]
        engine = sched.node.engine
        topology = sched.node.topology
        const_events: list[Event] = []
        const_index: dict[Event, int] = {}
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
                    s = ev.seq
                    if S0 <= s < S0 + E:
                        ops.append((0, ck, 0, s - S0))
                    elif S0 - E <= s < S0:
                        slot = s - (S0 - E)
                        if (
                            not ev.recorded
                            or _TASK_ID.sub("", ev.label)
                            != norm_labels[slot]
                        ):
                            return self._fail(
                                f"previous-period event {ev.label!r} does "
                                f"not line up with captured slot {slot} — "
                                "the warm-up iteration was not steady-state"
                            )
                        ops.append((0, ck, 1, slot))
                    else:
                        if not ev.recorded:
                            return self._fail(
                                f"wait on pre-capture event {ev.label!r} "
                                "that never recorded"
                            )
                        idx = const_index.get(ev)
                        if idx is None:
                            idx = const_index[ev] = len(const_events)
                            const_events.append(ev)
                        ops.append((0, ck, 2, idx))
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

        # -- residency fixed point (modulo per-lap event refresh) ------------
        monitor = sched.monitor
        exit_snap = snapshot_monitor(monitor)
        pending_plan: dict[tuple[int, int], tuple[str, tuple]] = {}
        for did, ex in exit_snap.items():
            en = entry.get(did)
            if en is None:
                return self._fail(
                    "a datum first touched during capture has no "
                    "steady-state entry snapshot"
                )
            ok = self._check_fixed_point(
                did, en, ex, slot_of, war_log, pending_plan
            )
            if ok is not None:
                return self._fail(ok)
        for did in entry:
            if did not in exit_snap:  # pragma: no cover - states persist
                return self._fail("a datum's state vanished during capture")

        self._programs = programs
        self._deltas = list(rec.deltas)
        self._K = len(rec.deltas) + 1
        self._E = E
        self._const_events = const_events
        self._boundary_times = [ev.recorded_at for ev in events]
        self._slot_events = list(events)
        self._slot_of = slot_of
        self._slot_labels = [ev.label for ev in events]
        self._devices = devices
        self._touches = list(rec.touches)
        self._expected = exit_snap
        self._pending_plan = pending_plan
        self.replayable = True
        self.reason = ""

    def _check_fixed_point(
        self,
        did: int,
        en: tuple,
        ex: tuple,
        slot_of: dict[Event, int],
        war_log: set[tuple[int, int]],
        pending_plan: dict[tuple[int, int], tuple[str, tuple]],
    ) -> str | None:
        """One datum's entry-vs-exit proof. The captured period must leave
        the datum's residency *geometry* exactly where it found it, and
        every event reference must be either untouched (a pre-capture
        constant) or refreshed by the period (a window event the epilogue
        re-materializes per lap). Returns a failure reason or None."""
        e_utd, e_mode, e_aggs, e_pend, e_lost, e_shadow = en
        x_utd, x_mode, x_aggs, x_pend, x_lost, x_shadow = ex
        if e_mode is not x_mode or e_lost != x_lost:
            return "aggregation state changed across the captured period"

        def ref_ok(e_ev, x_ev) -> bool:
            if x_ev is None:
                return e_ev is None
            if x_ev in slot_of:
                return True  # refreshed per lap
            return x_ev is e_ev  # untouched pre-capture constant

        if len(e_utd) != len(x_utd):
            return "residency geometry changed across the captured period"
        for (e_loc, e_insts), (x_loc, x_insts) in zip(e_utd, x_utd):
            if e_loc != x_loc or len(e_insts) != len(x_insts):
                return (
                    "residency geometry changed across the captured period"
                )
            for (e_rect, e_ev), (x_rect, x_ev) in zip(e_insts, x_insts):
                if e_rect != x_rect:
                    return (
                        "residency geometry changed across the captured "
                        "period"
                    )
                if not ref_ok(e_ev, x_ev):
                    return (
                        "an up-to-date instance carries an event from "
                        "neither the capture window nor the entry state"
                    )
        if len(e_aggs) != len(x_aggs):
            return "aggregation sources changed across the captured period"
        for (e_d, e_ev), (x_d, x_ev) in zip(e_aggs, x_aggs):
            if e_d != x_d or not ref_ok(e_ev, x_ev):
                return (
                    "aggregation sources changed across the captured period"
                )
        if (e_shadow is None) != (x_shadow is None):
            return "aggregation shadow changed across the captured period"
        if x_shadow is not None:
            if e_shadow[0] is not x_shadow[0] or len(e_shadow[1]) != len(
                x_shadow[1]
            ):
                return "aggregation shadow changed across the captured period"
            for (e_d, e_ev), (x_d, x_ev) in zip(e_shadow[1], x_shadow[1]):
                if e_d != x_d or not ref_ok(e_ev, x_ev):
                    return (
                        "aggregation shadow changed across the captured "
                        "period"
                    )
            if not ref_ok(e_shadow[2], x_shadow[2]):
                return "aggregation shadow changed across the captured period"

        # Pending reads: a list the period's writer consumed (war_log) must
        # end the period holding only window events (replaced per lap); an
        # unconsumed list may only have grown by a window-event tail.
        e_pend_map = dict(e_pend)
        for loc, x_evs in x_pend:
            key = (did, loc)
            if key in war_log:
                slots = []
                for ev in x_evs:
                    s = slot_of.get(ev)
                    if s is None:
                        return (
                            "a consumed pending-read list ends the period "
                            "with a pre-capture event"
                        )
                    slots.append(s)
                pending_plan[key] = ("replace", tuple(slots))
                continue
            e_evs = e_pend_map.get(loc, ())
            if len(x_evs) < len(e_evs):
                return "a pending-read list shrank without a writer"
            for e_ev, x_ev in zip(e_evs, x_evs):
                if e_ev is not x_ev:
                    return (
                        "a pending-read list's retained prefix changed "
                        "across the captured period"
                    )
            tail = x_evs[len(e_evs):]
            if tail:
                slots = []
                for ev in tail:
                    s = slot_of.get(ev)
                    if s is None:
                        return (
                            "a pending-read list grew by a pre-capture "
                            "event"
                        )
                    slots.append(s)
                pending_plan[key] = ("tail", tuple(slots))
        x_locs = {loc for loc, _ in x_pend}
        for loc, e_evs in e_pend_map.items():
            if e_evs and loc not in x_locs and (did, loc) not in war_log:
                return "a pending-read list vanished without a writer"
        return None

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
        if self._fast_ok():
            self.fast_launches += 1
            return self._fast(n)
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
    def _fast_ok(self) -> bool:
        if not self.replayable:
            return False
        sched = self._sched
        if sched._graph_generation != self.generation:
            return False
        node = sched.node
        # Anything still queued means un-drained foreign work; the replay
        # assumes quiescent streams.
        for s in node.streams:
            if s.commands:
                return False
        # The replay skips per-dispatch fault checks, so every permanent
        # failure must already have happened, on no device the graph
        # uses, and nothing else in the plan may be armed. Fault counters
        # are not replayed: every spec is exhausted by now and counts only
        # grow, so no later dispatch's outcome depends on them.
        now = node.time
        for d, ft in node.engine.dead.items():
            if ft > now or d in self._devices:
                return False
        if node.faults.armed(now):
            return False
        # An EWMA drift that would flip weights on the next eager invoke
        # must take the slow path (which then bumps the generation).
        if sched._current_weights() != sched._weights:
            return False
        monitor = sched.monitor
        state = monitor._state
        for did, snap in self._expected.items():
            st = state.get(did)
            if st is None or _snapshot_state(st) != snap:
                return False
        return True

    # -- fast path ------------------------------------------------------------
    def _fast(self, n: int) -> float:
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
        const_times = [ev.recorded_at for ev in self._const_events]
        ev_time = engine.run_graph(
            self._programs, n, ck_vals, K, E, self._boundary_times,
            const_times,
        )
        node.host_time = max(h, engine.now)
        self._boundary_times = ev_time[(n - 1) * E:]
        self._refresh_monitor(ev_time, n)
        sched.plans.graph_hits += n * max(1, len(self.calls))
        return node.time

    def _refresh_monitor(self, ev_time: list, n: int) -> None:
        """Epilogue: re-materialize the monitor's event references as the
        final replay lap would have left them.

        Fresh :class:`Event` objects are created for the final lap (the
        captured templates keep their capture-time values — the same
        template may also sit in an append-only pending-read tail, where
        its *old* time is the correct one), and the graph's expected
        snapshot is rebuilt around them so the next launch validates
        against exactly what this one left behind.
        """
        E = self._E
        base = (n - 1) * E
        slot_of = self._slot_of
        monitor = self._sched.monitor
        new_final: dict[int, Event] = {}
        inter: dict[tuple[int, int], Event] = {}

        def fresh(slot: int) -> Event:
            ev = new_final.get(slot)
            if ev is None:
                ev = Event(label=self._slot_labels[slot])
                ev.recorded_at = ev_time[base + slot]
                new_final[slot] = ev
            return ev

        def lap_ev(lap: int, slot: int) -> Event:
            if lap == n - 1:
                return fresh(slot)
            key = (lap, slot)
            ev = inter.get(key)
            if ev is None:
                ev = Event(label=self._slot_labels[slot])
                ev.recorded_at = ev_time[lap * E + slot]
                inter[key] = ev
            return ev

        def map_ev(ev):
            if ev is None:
                return None
            s = slot_of.get(ev)
            return ev if s is None else fresh(s)

        new_expected: dict[int, tuple] = {}
        for did, snap in self._expected.items():
            st = monitor._state[did]
            utd, mode, aggs, pend, lost, shadow = snap
            for loc, insts in utd:
                cur = st.up_to_date[loc]
                changed = False
                new_insts = []
                for i, (rect, ev) in enumerate(insts):
                    s = None if ev is None else slot_of.get(ev)
                    if s is None:
                        new_insts.append(cur[i])
                    else:
                        # Never mutate an _Instance in place: memoized
                        # transition templates may share it.
                        new_insts.append(_Instance(rect, fresh(s)))
                        changed = True
                if changed:
                    st.up_to_date[loc] = new_insts
            if aggs:
                for d, ev in aggs:
                    m = map_ev(ev)
                    if m is not ev:
                        st.agg_sources[d] = m
            if shadow is not None:
                sh_mode, sh_sources, sh_ev = shadow
                st.agg_shadow = (
                    sh_mode,
                    {d: map_ev(ev) for d, ev in sh_sources},
                    map_ev(sh_ev),
                )
            for (p_did, loc), (kind, slots) in self._pending_plan.items():
                if p_did != did:
                    continue
                if kind == "replace":
                    st.pending_reads[loc] = [fresh(s) for s in slots]
                else:  # append-only tail: one set per replayed lap
                    lst = st.pending_reads[loc]
                    for lap in range(n):
                        for s in slots:
                            lst.append(lap_ev(lap, s))
            new_expected[did] = _snapshot_state(st)
        self._expected = new_expected
        slot_events = self._slot_events
        for s, ev in new_final.items():
            slot_events[s] = ev
        self._slot_of = {ev: s for s, ev in enumerate(slot_events)}
