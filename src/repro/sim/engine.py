"""The discrete-event engine.

Executes commands from a set of in-order streams, respecting:

* stream order (a command waits for its stream predecessor),
* event dependencies (``EventWait`` blocks until the event is recorded),
* engine occupancy (one kernel per compute engine; one transfer per copy
  engine per direction),
* link occupancy (transfers sharing an interconnect link serialize).

Dispatch is greedy earliest-ready-first, which matches FIFO hardware
arbitration to first order. Functional payloads run at dispatch, which is a
valid topological order of the dependency graph — so a *missing*
synchronization in the framework shows up as wrong numerical results, just
like a real data race.

Earliest-ready-first selection runs on a lazy min-heap of stream heads
keyed ``(ready_time, stream.id)`` instead of a full rescan per dispatch.
A stream's head readiness can only change through its own dispatches
(which re-insert it) or through an event it waits on being recorded —
blocked streams are parked per event and re-inserted when the matching
``EventRecord`` executes — so heap entries are never stale and each
dispatch costs O(log streams) instead of O(streams × heads). Commands
are lowered once, at enqueue (:meth:`Engine.lower`), and eager runs and
iteration-graph replays share one dispatch loop and its rule for which
head runs next. A graph's one-lap launch runs code compiled from the
order that loop took, behind guards that fall back to the loop
(:mod:`repro.sim.segment`, :meth:`Engine.run_graph`).

Fault injection (DESIGN.md §8): while the node's
:class:`~repro.sim.faults.FaultPlan` is armed or a device is dead, every
kernel/memcpy dispatch is checked against them *before* resources are
occupied or the functional payload runs. A command touching a permanently-failed device raises
:class:`~repro.errors.DeviceFault`; a transiently-faulted transfer raises
:class:`~repro.errors.TransientTransferError`. Either way the engine's
state stays consistent (the command is popped, nothing else moved), so
the scheduler can recover and call :meth:`Engine.run` again. Straggler
degradation factors stretch durations without raising.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable

from repro.errors import (
    DeadlockError,
    DeviceFault,
    SimulationError,
    StragglerAlarm,
    TransientTransferError,
)
from repro.hardware.topology import HOST, NodeTopology
from repro.sim.commands import (
    Command,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)
from repro.sim.device import Device, EngineState
from repro.sim.segment import GraphSegment, compile_segment
from repro.sim.stream import Stream
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan

#: Distinct memcpy routes an engine memoizes before starting over.
_ROUTE_LIMIT = 4096


class Engine:
    """Discrete-event executor over a node's devices, links and streams."""

    def __init__(
        self,
        devices: list[Device],
        topology: NodeTopology,
        trace: Trace,
        faults: "FaultPlan",
    ):
        self.devices = devices
        self.topology = topology
        self.trace = trace
        self.faults = faults
        #: device -> simulated time of permanent failure. Seeded from the
        #: fault plan; the scheduler may add entries (e.g. when it retires
        #: a device after an injected allocation failure).
        self.dead: dict[int, float] = faults.failure_times()
        self.host_engine = EngineState("host.compute")
        self._channel_busy: dict[tuple[int, int], float] = {}
        #: (src, dst, pageable, nbytes, extra_latency) -> a memcpy's
        #: resources and costs (:meth:`_route`).
        self._routes: dict[tuple, tuple] = {}
        self.now = 0.0
        self.commands_executed = 0
        #: Optional throughput observer ``(kind, where, nominal, actual)``
        #: called at every kernel/memcpy dispatch — the scheduler's EWMA
        #: feedback loop (DESIGN.md §11). ``where`` is the device for
        #: kernels, the ``(src, dst)`` pair for transfers.
        self.observer = None

    def set_fault_plan(
        self,
        faults: "FaultPlan",
        dead: dict[int, float] | None = None,
    ) -> None:
        """Swap the active fault plan (job-server context switch,
        DESIGN.md §13).

        The engine holds exactly two pieces of fault state — the plan it
        consults at dispatch and the dead map — so replacing both switches
        the machine's failure behaviour between tenants. ``dead=None``
        seeds the map from the plan's (epoch-shifted) failure times; pass
        ``{}`` explicitly to model devices repaired between leases.
        Everything else (clock, occupancy, lowerings) survives: the
        hardware keeps existing, only *whose* faults it exhibits changes.
        """
        self.faults = faults
        if dead is None:
            dead = faults.failure_times()
        self.dead = dict(dead)

    # -- lowering ----------------------------------------------------------------
    def _route(
        self, src: int, dst: int, nbytes: int, pageable: bool,
        extra_latency: float,
    ) -> tuple:
        """A memcpy's copy engines, ``((channel, nbytes / bandwidth), ...)``
        link costs and nominal duration (``transfer_time +
        extra_latency``), memoized per route and size."""
        key = (src, dst, pageable, nbytes, extra_latency)
        low = self._routes.get(key)
        if low is None:
            engines = []
            if src != HOST:
                engines.append(self.devices[src].copy_out)
            if dst != HOST:
                engines.append(self.devices[dst].copy_in)
            path = self.topology.path(src, dst, pageable=pageable)
            low = (
                tuple(engines),
                tuple((seg.channel, nbytes / seg.link.bandwidth) for seg in path),
                self.topology.transfer_time(nbytes, path) + extra_latency,
            )
            if len(self._routes) >= _ROUTE_LIMIT:
                self._routes.clear()
            self._routes[key] = low
        return low

    def lower(self, cmd: Command, device: int) -> tuple:
        """The opcode of a kernel, memcpy or host op enqueued on a stream of
        ``device``, with its resources resolved: ``(2, None, compute
        engine, duration, label, payload, device)``, ``(3, None, copy
        engines, link costs, nominal duration, label, payload, src, dst,
        nbytes)`` or ``(4, None, duration, label, payload)``. ``SimNode``
        lowers each command once, at enqueue (``cmd.op``), and iteration-
        graph capture compiles the same opcodes, with the host-clock
        checkpoint in the second field (:meth:`run_graph`)."""
        t = type(cmd)
        if t is KernelLaunch:
            return (2, None, self.devices[device].compute, cmd.duration,
                    cmd.label, cmd.payload, device)
        if t is Memcpy:
            return (3, None, *self._route(
                cmd.src, cmd.dst, cmd.nbytes, cmd.pageable, cmd.extra_latency
            ), cmd.label, cmd.payload, cmd.src, cmd.dst, cmd.nbytes)
        if t is HostOp:
            return (4, None, cmd.duration, cmd.label, cmd.payload)
        raise SimulationError(f"unknown command type {t.__name__}")

    # -- dispatch ------------------------------------------------------------------
    def run(
        self,
        streams: list[Stream],
        until: Iterable[object] | None = None,
    ) -> float:
        """Execute queued commands earliest-ready-first; returns the final
        simulated time.

        With ``until`` (an iterable of :class:`Event`), execution stops as
        soon as every listed event has been recorded — later independent
        commands stay queued for a subsequent ``run``. Without it, all
        queues are drained.
        """
        until_set = None
        if until is not None:
            until_set = {e for e in until if not e.recorded}
            if not until_set:
                # Everything asked for already happened (e.g. a recovery
                # pass completed the events): leave later work queued.
                return self.now
        self._dispatch(streams, until_set)
        return self.now

    def run_graph(
        self,
        segment: GraphSegment,
        n: int,
        ck_vals: list[float],
        K: int,
        E: int,
        boundary_times: list[float],
        const_times: list[float],
        ev_time: list[float | None] | None = None,
    ) -> list[float | None]:
        """Replay one segment of a compiled iteration graph for ``n`` laps
        (DESIGN.md §12).

        ``segment`` holds each captured stream and its opcode program:
        the opcodes :meth:`lower` gave its commands, with the host-time
        checkpoint ``ck`` in the second field, plus event waits and
        records by slot. A replay dispatch touches no command objects and
        goes through the same loop as an eager one, so replayed times and
        dispatch order are bit-identical to an uncaptured run.

        Event opcodes:

        * ``(0, ck, mode, a)`` — wait. ``mode`` 0: same-lap slot ``a``; 1:
          previous-lap slot ``a`` (lap 0 reads ``boundary_times``); 2:
          pre-capture constant ``const_times[a]``.
        * ``(1, ck, slot)`` — record into slot ``slot``.

        ``ck_vals[lap * K + ck]`` is the host-time checkpoint (the eager
        ``earliest_start``) for a command recorded after ``ck`` host
        advances of its lap. Returns the flat ``n * E`` array of recorded
        event times (lap-major); entry ``lap * E + slot`` is that lap's
        recording of captured event ``slot``. A graph replayed in segments
        (one per host sync it captured) passes the array the earlier
        segments filled as ``ev_time``, so a wait on an event of an
        earlier segment reads its time.

        The interpreter only; a segment's first one-lap replay also
        compiles the order it took (:mod:`repro.sim.segment`), which the
        graph's generated launch runs from then on, falling back here.
        """
        if ev_time is None:
            ev_time = [None] * (n * E)
        order = None
        if n == 1 and not segment.recorded:
            segment.recorded = True
            order = []
        self._dispatch(
            segment.streams, None,
            (segment.programs, n, ck_vals, K, E, boundary_times,
             const_times, ev_time, order),
        )
        if order is not None:
            segment.run = compile_segment(self, segment, order)
        return ev_time

    def _dispatch(
        self, streams: list[Stream], until: set | None, replay=None
    ) -> None:
        """The one dispatch loop: eager commands (``replay`` None; the
        streams' queues, each command's ``op``) or an iteration graph's
        programs (``replay``, see :meth:`run_graph`) for ``n`` laps. A
        replay given an ``order`` list appends the ``(lane, pc)`` of each
        pop to it, which is what :func:`compile_segment` compiles.

        Streams are lanes of a min-heap keyed ``(ready, stream id)``; a
        lane waiting on an unrecorded event is parked on it. After each
        dispatch the lane's next head runs in-line when its key is below
        the heap's top — exactly the command the heap would pop next — so
        the dispatch order, and the commands an early stop (``until``)
        leaves queued, is the heap's. A ready wait of a run that can
        neither stop early nor fault runs in-line whatever its key: it
        moves only its own lane's cursor, to its own ready time, and every
        command the heap would pop before it is keyed below everything the
        lane submits after it, so no dispatch changes order. A record
        wakes other lanes, so it waits its turn, eager or replayed. The
        fault checks run only for eager commands, and only when a device
        is dead or the fault plan is
        armed at the earliest time anything can start: an unarmed plan
        cannot re-arm, and its straggler factor is 1.0.
        """
        heap: list[tuple[float, int, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        #: event id (eager) or lap slot (replay) -> lanes parked on it
        waiting: dict[int, list[int]] = {}
        blocked = 0
        graph = replay is not None
        if graph:
            progs, n, ck_vals, K, E, boundary, consts, ev_time, order = replay
            lens = [len(p) for p in progs]
            laps = [0 if m else n for m in lens]
            pcs = [0] * len(progs)

            def ready_of(si: int) -> float | None:
                """Lane ``si``'s head readiness; None parks the lane."""
                op = progs[si][pcs[si]]
                lap = laps[si]
                t = ck_vals[lap * K + op[1]]
                c = streams[si].cursor
                if c > t:
                    t = c
                if op[0] == 0:
                    mode = op[2]
                    if mode == 0:
                        key = lap * E + op[3]
                        e = ev_time[key]
                    elif mode == 1:
                        if lap == 0:
                            e = boundary[op[3]]
                            key = -1
                        else:
                            key = (lap - 1) * E + op[3]
                            e = ev_time[key]
                    else:
                        e = consts[op[3]]
                        key = -1
                    if e is None:
                        waiting.setdefault(key, []).append(si)
                        return None
                    if e > t:
                        t = e
                return t

            def wake(si: int) -> None:
                r = ready_of(si)
                if r is not None:
                    push(heap, (r, streams[si].id, si))

            for si in range(len(streams)):
                if lens[si]:
                    wake(si)
        else:

            def wake(si: int) -> None:
                nonlocal blocked
                s = streams[si]
                if not s.commands:
                    return
                head = s.commands[0]
                if type(head) is EventWait:
                    ev = head.event
                    if ev is None or ev.recorded_at is None:
                        # Parked until the event records (one that never
                        # records keeps the stream parked → deadlock).
                        waiting.setdefault(id(ev), []).append(si)
                        blocked += 1
                        return
                    ready = max(s.cursor, head.earliest_start, ev.recorded_at)
                else:
                    ready = max(s.cursor, head.earliest_start)
                push(heap, (ready, s.id, si))

            for si in range(len(streams)):
                wake(si)
        checked = not graph and (
            bool(self.dead) or (bool(heap) and self.faults.armed(heap[0][0]))
        )
        drain = until is None and not checked
        observer = self.observer
        host_engine = self.host_engine
        busy = self._channel_busy
        lat = self.topology.calib.transfer_latency
        rows: list[tuple] = []
        add_row = rows.append
        executed = 0
        stopped = False
        try:
            while heap:
                ready, sid, si = pop(heap)
                stream = streams[si]
                if graph:
                    prog = progs[si]
                    op = prog[pcs[si]]
                    if order is not None:
                        order.append((si, pcs[si]))
                else:
                    q = stream.commands
                while True:
                    if not graph:
                        cmd = q.popleft()
                        op = cmd.op
                        if op is None:
                            op = cmd.op = self.lower(cmd, stream.device)
                    code = op[0]
                    if code == 0:
                        # A wait: zero-duration, moves the cursor.
                        stream.cursor = end = ready
                    elif code == 1:
                        stream.cursor = end = ready
                        if graph:
                            key = laps[si] * E + op[2]
                            ev_time[key] = ready
                        else:
                            ev = cmd.event
                            if ev is None:
                                executed += 1
                                raise SimulationError(
                                    "EventRecord without an event"
                                )
                            ev.recorded_at = ready
                            key = id(ev)
                        woken = waiting.pop(key, None)
                        if woken:
                            blocked -= len(woken)
                            for w in woken:
                                wake(w)
                        if until is not None:
                            # Only a record can complete the wait, so
                            # discarding the event just recorded is
                            # re-filtering the whole list.
                            until.discard(ev)
                            if not until:
                                executed += 1
                                stopped = True
                                break
                    elif code == 2:
                        es = op[2]
                        start = es.busy_until
                        if ready > start:
                            start = ready
                        nominal = duration = op[3]
                        if checked:
                            duration = self._checked_kernel(
                                cmd, stream, start, duration
                            )
                        end = start + duration
                        es.busy_until = end
                        es.busy_time += end - start
                        if observer is not None:
                            observer("kernel", op[6], nominal, duration)
                        stream.cursor = end
                        if op[5] is not None:
                            op[5]()
                        add_row(("kernel", op[4], op[6], start, end, 0, None))
                    elif code == 3:
                        start = ready
                        for e in op[2]:
                            if e.busy_until > start:
                                start = e.busy_until
                        for ch, _cost in op[3]:
                            tb = busy.get(ch, 0.0)
                            if tb > start:
                                start = tb
                        nominal = duration = op[4]
                        if checked:
                            duration = self._checked_memcpy(
                                cmd, stream, start, duration
                            )
                        if observer is not None:
                            observer("memcpy", (op[7], op[8]), nominal, duration)
                        end = start + duration
                        for e in op[2]:
                            e.busy_until = end
                            e.busy_time += end - start
                        # Pipelined (store-and-forward-free) occupancy: each
                        # link channel is busy for the time *it* needs to
                        # stream the bytes, so a transfer bottlenecked
                        # elsewhere doesn't monopolize fast shared links.
                        base = start + lat
                        for ch, cost in op[3]:
                            busy[ch] = base + cost
                        stream.cursor = end
                        if op[6] is not None:
                            op[6]()
                        add_row(
                            ("memcpy", op[5], op[8], start, end, op[9], op[7])
                        )
                    else:
                        start = host_engine.busy_until
                        if ready > start:
                            start = ready
                        end = start + op[2]
                        host_engine.busy_until = end
                        host_engine.busy_time += end - start
                        stream.cursor = end
                        if op[4] is not None:
                            op[4]()
                        add_row(("host", op[3], HOST, start, end, 0, None))
                    executed += 1
                    # The lane's next head and its readiness.
                    if graph:
                        pc = pcs[si] + 1
                        if pc == lens[si]:
                            pc = 0
                            laps[si] += 1
                            if laps[si] == n:
                                pcs[si] = pc
                                break
                        pcs[si] = pc
                        op = prog[pc]
                        if op[0] == 0:
                            ready = ready_of(si)
                            if ready is None:
                                break
                            continue  # a ready wait, in-line
                        ready = ck_vals[laps[si] * K + op[1]]
                        if end > ready:
                            ready = end
                    else:
                        if not q:
                            break
                        head = q[0]
                        if type(head) is EventWait:
                            ev = head.event
                            if ev is None or ev.recorded_at is None:
                                waiting.setdefault(id(ev), []).append(si)
                                blocked += 1
                                break
                            ready = max(end, head.earliest_start,
                                        ev.recorded_at)
                            if drain:
                                continue  # a ready wait, in-line
                        else:
                            ready = max(end, head.earliest_start)
                    # In-line when it is what the heap would pop next.
                    if heap:
                        top = heap[0]
                        if ready > top[0] or (ready == top[0] and sid > top[1]):
                            push(heap, (ready, sid, si))
                            break
                if stopped:
                    break
        finally:
            self.commands_executed += executed
            self.trace.add_batch(rows)

        if graph:
            stuck = [streams[si].label for si in range(len(streams))
                     if laps[si] != n]
            if stuck:
                raise DeadlockError(
                    f"iteration-graph replay deadlocked; stuck streams: "
                    f"{stuck}"
                )
        elif blocked and not stopped:
            pend = [s for s in streams if s.commands]
            raise DeadlockError(
                f"deadlock: {blocked} streams blocked on unrecorded "
                f"events; pending streams: {pend}"
            )
        now = self.now
        for s in streams:
            if s.cursor > now:
                now = s.cursor
        self.now = now

    # -- fault checks (only while armed or with a dead device) -----------------
    def _check_dead(
        self, device: int, start: float, cmd: Command, stream: Stream
    ) -> None:
        """Raise DeviceFault if ``device`` has permanently failed by the
        command's start time (fail-stop: nothing dispatches on it)."""
        ft = self.dead.get(device)
        if ft is not None and start >= ft:
            raise DeviceFault(
                f"device {device} failed at t={ft:.6g}: cannot dispatch "
                f"{cmd.label!r}",
                device=device,
                time=start,
                command=cmd,
                stream=stream,
            )

    def _checked_kernel(
        self, cmd: KernelLaunch, stream: Stream, start: float, duration: float
    ) -> float:
        """A kernel's fault checks at ``start``; returns its (straggler-
        stretched) duration or raises with the command popped and nothing
        else moved."""
        device = stream.device
        if self.dead:
            self._check_dead(device, start, cmd, stream)
        fp = self.faults
        factor = fp.compute_factor(device, start)
        if (
            factor >= fp.watchdog_patience
            and fp.mitigate_stragglers
            and not getattr(cmd.origin, "alarmed", True)
        ):
            # Progress watchdog (DESIGN.md §11): the kernel's projected
            # completion blows the deadline. Like other injected faults,
            # the alarm fires before resources are occupied or the payload
            # runs, and each command alarms at most once (a re-queued
            # loser runs to completion).
            cmd.origin.alarmed = True
            raise StragglerAlarm(
                f"kernel {cmd.label!r} projected {factor:.3g}x over "
                f"its calibrated duration at t={start:.6g}",
                device=device,
                time=start + fp.watchdog_patience * duration,
                start=start,
                nominal=duration,
                projected_end=start + factor * duration,
                command=cmd,
                stream=stream,
                kind="kernel",
            )
        return duration * factor

    def _checked_memcpy(
        self, cmd: Memcpy, stream: Stream, start: float, duration: float
    ) -> float:
        """A memcpy's fault checks at ``start``; returns its (straggler-
        stretched) duration or raises with the command popped and nothing
        else moved."""
        src, dst = cmd.src, cmd.dst
        if self.dead:
            if src != HOST:
                self._check_dead(src, start, cmd, stream)
            if dst != HOST:
                self._check_dead(dst, start, cmd, stream)
        fp = self.faults
        factor = fp.transfer_factor(src, dst, start)
        if (
            factor >= fp.hedge_patience
            and fp.mitigate_stragglers
            and not getattr(cmd.origin, "alarmed", True)
        ):
            # Hedged-transfer watchdog (DESIGN.md §11). Raised *before* the
            # stateful transfer_faults_now draw — an alarmed attempt never
            # dispatched, so the per-link fault counters advance only on
            # the re-dispatch.
            cmd.origin.alarmed = True
            slow = src
            if fp.transfer_factor(dst, dst, start) > fp.transfer_factor(
                src, src, start
            ):
                slow = dst
            raise StragglerAlarm(
                f"transfer {cmd.label!r} ({src}->{dst}) projected "
                f"{factor:.3g}x over its calibrated duration at "
                f"t={start:.6g}",
                device=slow,
                time=start + fp.hedge_patience * duration,
                start=start,
                nominal=duration,
                projected_end=start + factor * duration,
                command=cmd,
                stream=stream,
                kind="transfer",
            )
        if fp.transfer_faults_now(src, dst):
            # The failed attempt occupies nothing: the error is detected
            # at start; the retry backoff (simulated time) is the modelled
            # cost of the fault.
            raise TransientTransferError(
                f"transfer {cmd.label!r} ({src}->{dst}) faulted at "
                f"t={start:.6g}",
                device=dst if dst != HOST else src,
                time=start,
                command=cmd,
                stream=stream,
            )
        return duration * factor
