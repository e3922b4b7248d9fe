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
dispatch costs O(log streams) instead of O(streams × heads).

Fault injection (DESIGN.md §8): every kernel/memcpy dispatch is checked
against the node's :class:`~repro.sim.faults.FaultPlan` (an empty plan
when nothing is armed) *before* resources are occupied or the functional
payload runs. A command touching a permanently-failed device raises
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
from repro.hardware.topology import HOST, NodeTopology, PathSegment
from repro.sim.commands import (
    Command,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)
from repro.sim.device import Device, EngineState
from repro.sim.stream import Stream
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan


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
        #: (src, dst, pageable) -> (engines, path, channels): the per-route
        #: resources of a memcpy. Devices and topology are fixed for the
        #: engine's lifetime, so resolving a route once removes the
        #: per-dispatch list/PathSegment construction from the hot path.
        self._route_cache: dict[
            tuple[int, int, bool],
            tuple[tuple[EngineState, ...], list[PathSegment], tuple],
        ] = {}
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
        Everything else (clock, occupancy, route cache) survives: the
        hardware keeps existing, only *whose* faults it exhibits changes.
        """
        self.faults = faults
        if dead is None:
            dead = faults.failure_times()
        self.dead = dict(dead)

    def _check_dead(
        self, device: int, start: float, cmd: Command, stream: Stream
    ) -> None:
        """Raise DeviceFault if ``device`` has permanently failed by the
        command's start time (fail-stop: nothing dispatches on it)."""
        ft = self.dead.get(device)
        if ft is not None and start >= ft:
            self.commands_executed -= 1
            raise DeviceFault(
                f"device {device} failed at t={ft:.6g}: cannot dispatch "
                f"{cmd.label!r}",
                device=device,
                time=start,
                command=cmd,
                stream=stream,
            )

    # -- resource helpers ----------------------------------------------------
    def _route(
        self, src: int, dst: int, pageable: bool
    ) -> tuple[tuple[EngineState, ...], list[PathSegment], tuple]:
        """Memoized per-route resources of a memcpy: the copy engines it
        occupies, the link path it crosses, and the path's precomputed
        channel keys (``PathSegment.channel`` builds a tuple per call)."""
        key = (src, dst, pageable)
        res = self._route_cache.get(key)
        if res is None:
            engines = []
            if src != HOST:
                engines.append(self.devices[src].copy_out)
            if dst != HOST:
                engines.append(self.devices[dst].copy_in)
            path = self.topology.path(src, dst, pageable=pageable)
            channels = tuple(seg.channel for seg in path)
            res = (tuple(engines), path, channels)
            self._route_cache[key] = res
        return res

    # -- main loop -------------------------------------------------------------
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

        # heap of (ready_time, stream.id, stream); a stream is either in
        # the heap, parked in `waiting` on its head's event, or drained.
        heap: list[tuple[float, int, Stream]] = []
        waiting: dict[int, list[Stream]] = {}
        blocked = 0

        def push(s: Stream) -> None:
            nonlocal blocked
            if not s.commands:
                return
            head = s.commands[0]
            if type(head) is EventWait:
                ev = head.event
                if ev is None or ev.recorded_at is None:
                    # Parked until the event records (an event that never
                    # records keeps the stream parked → deadlock report).
                    waiting.setdefault(id(ev), []).append(s)
                    blocked += 1
                    return
                ready = max(s.cursor, head.earliest_start, ev.recorded_at)
            else:
                ready = max(s.cursor, head.earliest_start)
            heapq.heappush(heap, (ready, s.id, s))

        for s in streams:
            push(s)

        stopped_early = False
        while heap:
            ready, _, stream = heapq.heappop(heap)
            cmd = self._dispatch(stream, ready)
            if type(cmd) is EventRecord:
                # Wake streams whose head waits on the recorded event.
                woken = waiting.pop(id(cmd.event), None)
                if woken:
                    blocked -= len(woken)
                    for w in woken:
                        push(w)
                if until_set is not None:
                    # Only an EventRecord dispatch can record an event, so
                    # discarding the one just recorded is equivalent to
                    # re-filtering the whole list — without the per-record
                    # list rebuild.
                    until_set.discard(cmd.event)
                    if not until_set:
                        stopped_early = True
                        break
            push(stream)

        if blocked and not stopped_early:
            pend = [s for s in streams if s.commands]
            raise DeadlockError(
                f"deadlock: {blocked} streams blocked on unrecorded "
                f"events; pending streams: {pend}"
            )
        self.now = max([self.now] + [s.cursor for s in streams])
        return self.now

    # -- iteration-graph replay -------------------------------------------------
    def run_graph(
        self,
        programs: list[tuple[Stream, list[tuple]]],
        n: int,
        ck_vals: list[float],
        K: int,
        E: int,
        boundary_times: list[float],
        const_times: list[float],
    ) -> list[float | None]:
        """Replay a compiled iteration graph for ``n`` laps (DESIGN.md §12).

        ``programs`` pairs each captured stream with its pre-lowered opcode
        list; every opcode carries the resolved resources (engine states,
        channel keys, precomputed durations) so a replay dispatch touches no
        command objects, allocates nothing per dispatch, and performs the
        *same floating-point arithmetic in the same order* as the eager
        path — replayed times are bit-identical to an uncaptured run.

        Opcodes (first field selects):

        * ``(0, ck, mode, a)`` — event wait. ``mode`` 0: same-lap slot
          ``a``; 1: previous-lap slot ``a`` (lap 0 reads
          ``boundary_times``); 2: pre-capture constant ``const_times[a]``.
        * ``(1, ck, slot)`` — event record into slot ``slot``.
        * ``(2, ck, engine, duration, label, payload, device)`` — kernel.
        * ``(3, ck, engines, segchan, duration, label, payload, src, dst,
          nbytes)`` — memcpy; ``segchan`` is ``((channel, nbytes/bw), ...)``.
        * ``(4, ck, duration, label, payload)`` — host op.

        ``ck_vals[lap * K + ck]`` is the host-time checkpoint (the eager
        ``earliest_start``) for a command recorded after ``ck`` host
        advances of its lap. Returns the flat ``n * E`` array of recorded
        event times (lap-major); entry ``lap * E + slot`` is that lap's
        recording of captured event ``slot``.
        """
        S = len(programs)
        streams = [p[0] for p in programs]
        progs = [p[1] for p in programs]
        sids = [s.id for s in streams]
        curs = [s.cursor for s in streams]
        lens = [len(p) for p in progs]
        laps = [0] * S
        pcs = [0] * S
        ev_time: list[float | None] = [None] * (n * E)
        #: absolute slot index (lap * E + slot) -> stream indices parked on it
        waiting: dict[int, list[int]] = {}
        heap: list[tuple[float, int, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        rows: list[tuple] = []
        add_row = rows.append
        busy = self._channel_busy
        observer = self.observer
        host_engine = self.host_engine
        lat = self.topology.calib.transfer_latency

        def ready_of(si: int) -> float | None:
            """Readiness of stream ``si``'s head opcode; None parks it."""
            op = progs[si][pcs[si]]
            lap = laps[si]
            t = ck_vals[lap * K + op[1]]
            c = curs[si]
            if c > t:
                t = c
            if op[0] == 0:
                mode = op[2]
                a = op[3]
                if mode == 0:
                    key = lap * E + a
                    e = ev_time[key]
                elif mode == 1:
                    if lap == 0:
                        e = boundary_times[a]
                        key = -1
                    else:
                        key = (lap - 1) * E + a
                        e = ev_time[key]
                else:
                    e = const_times[a]
                    key = -1
                if e is None:
                    waiting.setdefault(key, []).append(si)
                    return None
                if e > t:
                    t = e
            return t

        for si in range(S):
            if lens[si]:
                r = ready_of(si)
                if r is not None:
                    push(heap, (r, sids[si], si))
            else:
                laps[si] = n

        while heap:
            ready, _, si = pop(heap)
            prog = progs[si]
            while True:
                op = prog[pcs[si]]
                code = op[0]
                if code == 0:
                    curs[si] = ready
                elif code == 1:
                    # EventRecord. Recording and waking in-line (without a
                    # heap round-trip) is order-safe: the record's time is
                    # unchanged, every wake it enables is pushed with a key
                    # >= that time, and real commands always go through the
                    # heap — so real-dispatch order still follows the keys.
                    curs[si] = ready
                    idx = laps[si] * E + op[2]
                    ev_time[idx] = ready
                    woken = waiting.pop(idx, None)
                    if woken:
                        for w in woken:
                            r = ready_of(w)
                            if r is not None:
                                push(heap, (r, sids[w], w))
                elif code == 2:
                    es = op[2]
                    start = es.busy_until
                    if ready > start:
                        start = ready
                    dur = op[3]
                    end = start + dur
                    es.busy_until = end
                    es.busy_time += end - start
                    if observer is not None:
                        observer("kernel", op[6], dur, dur)
                    curs[si] = end
                    if op[5] is not None:
                        op[5]()
                    add_row(("kernel", op[4], op[6], start, end, 0, None))
                elif code == 3:
                    start = ready
                    for e in op[2]:
                        if e.busy_until > start:
                            start = e.busy_until
                    segchan = op[3]
                    for ch, _cost in segchan:
                        t = busy.get(ch, 0.0)
                        if t > start:
                            start = t
                    dur = op[4]
                    if observer is not None:
                        observer("memcpy", (op[7], op[8]), dur, dur)
                    end = start + dur
                    for e in op[2]:
                        e.busy_until = end
                        e.busy_time += end - start
                    base = start + lat
                    for ch, cost in segchan:
                        busy[ch] = base + cost
                    curs[si] = end
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
                    curs[si] = end
                    if op[4] is not None:
                        op[4]()
                    add_row(("host", op[3], HOST, start, end, 0, None))

                pc = pcs[si] + 1
                if pc == lens[si]:
                    pc = 0
                    laps[si] += 1
                    if laps[si] == n:
                        pcs[si] = pc
                        break
                pcs[si] = pc
                r = ready_of(si)
                if r is None:
                    break
                if prog[pc][0] >= 2:
                    push(heap, (r, sids[si], si))
                    break
                # Zero-duration wait/record head: consume in-line.
                ready = r

        if any(lap != n for lap in laps):
            stuck = [
                streams[si].label for si in range(S) if laps[si] != n
            ]
            raise DeadlockError(
                f"iteration-graph replay deadlocked; stuck streams: {stuck}"
            )
        total = 0
        for si in range(S):
            streams[si].cursor = curs[si]
            total += lens[si]
        self.commands_executed += n * total
        self.trace.add_batch(rows)
        now = self.now
        for c in curs:
            if c > now:
                now = c
        self.now = now
        return ev_time

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, stream: Stream, ready: float) -> Command:
        cmd = stream.commands.popleft()
        self.commands_executed += 1

        if isinstance(cmd, EventWait):
            # Zero-duration; just moves the stream cursor forward.
            stream.cursor = ready
            return cmd

        if isinstance(cmd, EventRecord):
            if cmd.event is None:
                raise SimulationError("EventRecord without an event")
            cmd.event.recorded_at = ready
            stream.cursor = ready
            return cmd

        if isinstance(cmd, KernelLaunch):
            dev = self.devices[stream.device]
            start = max(ready, dev.compute.busy_until)
            if self.dead:
                self._check_dead(stream.device, start, cmd, stream)
            duration = cmd.duration
            fp = self.faults
            factor = fp.compute_factor(stream.device, start)
            if (
                factor >= fp.watchdog_patience
                and fp.mitigate_stragglers
                and not getattr(cmd.origin, "alarmed", True)
            ):
                # Progress watchdog (DESIGN.md §11): the kernel's
                # projected completion blows the deadline. Like other
                # injected faults, the alarm fires before resources
                # are occupied or the payload runs — the command is
                # popped, nothing else moved — and each command alarms
                # at most once (a re-queued loser runs to completion).
                cmd.origin.alarmed = True
                self.commands_executed -= 1
                raise StragglerAlarm(
                    f"kernel {cmd.label!r} projected {factor:.3g}x over "
                    f"its calibrated duration at t={start:.6g}",
                    device=stream.device,
                    time=start + fp.watchdog_patience * duration,
                    start=start,
                    nominal=duration,
                    projected_end=start + factor * duration,
                    command=cmd,
                    stream=stream,
                    kind="kernel",
                )
            duration *= factor
            end = start + duration
            dev.compute.occupy(start, end)
            if self.observer is not None:
                self.observer("kernel", stream.device, cmd.duration, duration)
            self._finish(stream, cmd, "kernel", stream.device, start, end)
            return cmd

        if isinstance(cmd, Memcpy):
            engines, path, channels = self._route(
                cmd.src, cmd.dst, cmd.pageable
            )
            start = ready
            for e in engines:
                if e.busy_until > start:
                    start = e.busy_until
            busy = self._channel_busy
            for ch in channels:
                t = busy.get(ch, 0.0)
                if t > start:
                    start = t
            if self.dead:
                if cmd.src != HOST:
                    self._check_dead(cmd.src, start, cmd, stream)
                if cmd.dst != HOST:
                    self._check_dead(cmd.dst, start, cmd, stream)
            duration = (
                self.topology.transfer_time(cmd.nbytes, path)
                + cmd.extra_latency
            )
            fp = self.faults
            factor = fp.transfer_factor(cmd.src, cmd.dst, start)
            if (
                factor >= fp.hedge_patience
                and fp.mitigate_stragglers
                and not getattr(cmd.origin, "alarmed", True)
            ):
                # Hedged-transfer watchdog (DESIGN.md §11). Raised
                # *before* the stateful transfer_faults_now draw — an
                # alarmed attempt never dispatched, so the per-link
                # fault counters advance only on the re-dispatch.
                cmd.origin.alarmed = True
                self.commands_executed -= 1
                slow = cmd.src
                if fp.transfer_factor(
                    cmd.dst, cmd.dst, start
                ) > fp.transfer_factor(cmd.src, cmd.src, start):
                    slow = cmd.dst
                raise StragglerAlarm(
                    f"transfer {cmd.label!r} ({cmd.src}->{cmd.dst}) "
                    f"projected {factor:.3g}x over its calibrated "
                    f"duration at t={start:.6g}",
                    device=slow,
                    time=start + fp.hedge_patience * duration,
                    start=start,
                    nominal=duration,
                    projected_end=start + factor * duration,
                    command=cmd,
                    stream=stream,
                    kind="transfer",
                )
            if fp.transfer_faults_now(cmd.src, cmd.dst):
                # The failed attempt occupies nothing: the error is
                # detected at start; the retry backoff (simulated
                # time) is the modelled cost of the fault.
                self.commands_executed -= 1
                raise TransientTransferError(
                    f"transfer {cmd.label!r} ({cmd.src}->{cmd.dst}) "
                    f"faulted at t={start:.6g}",
                    device=cmd.dst if cmd.dst != HOST else cmd.src,
                    time=start,
                    command=cmd,
                    stream=stream,
                )
            nominal = duration
            duration *= factor
            if self.observer is not None:
                self.observer("memcpy", (cmd.src, cmd.dst), nominal, duration)
            end = start + duration
            for e in engines:
                e.occupy(start, end)
            # Pipelined (store-and-forward-free) occupancy: each link
            # channel is busy for the time *it* needs to stream the bytes,
            # so a transfer bottlenecked elsewhere doesn't monopolize fast
            # shared links.
            base = start + self.topology.calib.transfer_latency
            for seg, ch in zip(path, channels):
                busy[ch] = base + cmd.nbytes / seg.link.bandwidth
            self._finish(
                stream, cmd, "memcpy", cmd.dst, start, end,
                nbytes=cmd.nbytes, src=cmd.src,
            )
            return cmd

        if isinstance(cmd, HostOp):
            start = max(ready, self.host_engine.busy_until)
            end = start + cmd.duration
            self.host_engine.occupy(start, end)
            self._finish(stream, cmd, "host", HOST, start, end)
            return cmd

        raise SimulationError(f"unknown command type {type(cmd).__name__}")

    def _finish(
        self,
        stream: Stream,
        cmd: Command,
        kind: str,
        device: int,
        start: float,
        end: float,
        nbytes: int = 0,
        src: int | None = None,
    ) -> None:
        stream.cursor = end
        if cmd.payload is not None:
            cmd.payload()
        self.trace.add_row(kind, cmd.label, device, start, end, nbytes, src)
