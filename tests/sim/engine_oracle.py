"""Differential oracle for the engine's eager dispatch (DESIGN.md §7, §8).

:meth:`Engine.run` dispatches commands lowered at enqueue, consumes a
stream's next head in-line when the heap would pop it next anyway, and
runs the fault checks only while the plan is armed or a device is dead.
This module keeps the implementation it replaced: a heap round-trip per
command, the route and duration resolved at every dispatch, and every
check on every kernel and memcpy.

* :func:`run` — the reference ``Engine.run``, on an engine's own state.
* :func:`install` — make one node's engine dispatch through :func:`run`.
* :func:`Recorder` — log every run of one node (result or raised error,
  and the engine state it left) for a twin-run comparison.
"""

from __future__ import annotations

import heapq
import re
import types

from repro.errors import (
    DeadlockError,
    DeviceFault,
    SimulationError,
    StragglerAlarm,
    TransientTransferError,
)
from repro.hardware.topology import HOST, Link
from repro.sim.commands import EventRecord, EventWait, HostOp, KernelLaunch, Memcpy


def run(eng, streams, until=None) -> float:
    """Execute queued commands earliest-ready-first; the reference body."""
    until_set = None
    if until is not None:
        until_set = {e for e in until if not e.recorded}
        if not until_set:
            return eng.now
    heap = []
    waiting: dict[int, list] = {}
    blocked = 0

    def push(s) -> None:
        nonlocal blocked
        if not s.commands:
            return
        head = s.commands[0]
        if type(head) is EventWait:
            ev = head.event
            if ev is None or ev.recorded_at is None:
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
        cmd = _dispatch(eng, stream, ready)
        if type(cmd) is EventRecord:
            woken = waiting.pop(id(cmd.event), None)
            if woken:
                blocked -= len(woken)
                for w in woken:
                    push(w)
            if until_set is not None:
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
    eng.now = max([eng.now] + [s.cursor for s in streams])
    return eng.now


def _route(eng, src, dst, pageable):
    engines = []
    if src != HOST:
        engines.append(eng.devices[src].copy_out)
    if dst != HOST:
        engines.append(eng.devices[dst].copy_in)
    path = eng.topology.path(src, dst, pageable=pageable)
    return tuple(engines), path, tuple(seg.channel for seg in path)


def _check_dead(eng, device, start, cmd, stream) -> None:
    ft = eng.dead.get(device)
    if ft is not None and start >= ft:
        eng.commands_executed -= 1
        raise DeviceFault(
            f"device {device} failed at t={ft:.6g}: cannot dispatch "
            f"{cmd.label!r}",
            device=device, time=start, command=cmd, stream=stream,
        )


def _dispatch(eng, stream, ready):
    cmd = stream.commands.popleft()
    eng.commands_executed += 1
    if isinstance(cmd, EventWait):
        stream.cursor = ready
        return cmd
    if isinstance(cmd, EventRecord):
        if cmd.event is None:
            raise SimulationError("EventRecord without an event")
        cmd.event.recorded_at = ready
        stream.cursor = ready
        return cmd
    if isinstance(cmd, KernelLaunch):
        dev = eng.devices[stream.device]
        start = max(ready, dev.compute.busy_until)
        if eng.dead:
            _check_dead(eng, stream.device, start, cmd, stream)
        duration = cmd.duration
        fp = eng.faults
        factor = fp.compute_factor(stream.device, start)
        if (
            factor >= fp.watchdog_patience
            and fp.mitigate_stragglers
            and not getattr(cmd.origin, "alarmed", True)
        ):
            cmd.origin.alarmed = True
            eng.commands_executed -= 1
            raise StragglerAlarm(
                f"kernel {cmd.label!r} projected {factor:.3g}x over "
                f"its calibrated duration at t={start:.6g}",
                device=stream.device,
                time=start + fp.watchdog_patience * duration,
                start=start, nominal=duration,
                projected_end=start + factor * duration,
                command=cmd, stream=stream, kind="kernel",
            )
        duration *= factor
        end = start + duration
        dev.compute.occupy(start, end)
        if eng.observer is not None:
            eng.observer("kernel", stream.device, cmd.duration, duration)
        _finish(eng, stream, cmd, "kernel", stream.device, start, end)
        return cmd
    if isinstance(cmd, Memcpy):
        engines, path, channels = _route(eng, cmd.src, cmd.dst, cmd.pageable)
        start = ready
        for e in engines:
            if e.busy_until > start:
                start = e.busy_until
        busy = eng._channel_busy
        for ch in channels:
            t = busy.get(ch, 0.0)
            if t > start:
                start = t
        if eng.dead:
            if cmd.src != HOST:
                _check_dead(eng, cmd.src, start, cmd, stream)
            if cmd.dst != HOST:
                _check_dead(eng, cmd.dst, start, cmd, stream)
        duration = (
            eng.topology.transfer_time(cmd.nbytes, path) + cmd.extra_latency
        )
        fp = eng.faults
        factor = fp.transfer_factor(cmd.src, cmd.dst, start)
        if (
            factor >= fp.hedge_patience
            and fp.mitigate_stragglers
            and not getattr(cmd.origin, "alarmed", True)
        ):
            cmd.origin.alarmed = True
            eng.commands_executed -= 1
            slow = cmd.src
            if fp.transfer_factor(cmd.dst, cmd.dst, start) > fp.transfer_factor(
                cmd.src, cmd.src, start
            ):
                slow = cmd.dst
            raise StragglerAlarm(
                f"transfer {cmd.label!r} ({cmd.src}->{cmd.dst}) "
                f"projected {factor:.3g}x over its calibrated "
                f"duration at t={start:.6g}",
                device=slow,
                time=start + fp.hedge_patience * duration,
                start=start, nominal=duration,
                projected_end=start + factor * duration,
                command=cmd, stream=stream, kind="transfer",
            )
        if fp.transfer_faults_now(cmd.src, cmd.dst):
            eng.commands_executed -= 1
            raise TransientTransferError(
                f"transfer {cmd.label!r} ({cmd.src}->{cmd.dst}) "
                f"faulted at t={start:.6g}",
                device=cmd.dst if cmd.dst != HOST else cmd.src,
                time=start, command=cmd, stream=stream,
            )
        nominal = duration
        duration *= factor
        if eng.observer is not None:
            eng.observer("memcpy", (cmd.src, cmd.dst), nominal, duration)
        end = start + duration
        for e in engines:
            e.occupy(start, end)
        base = start + eng.topology.calib.transfer_latency
        for seg, ch in zip(path, channels):
            busy[ch] = base + cmd.nbytes / seg.link.bandwidth
        _finish(eng, stream, cmd, "memcpy", cmd.dst, start, end,
                nbytes=cmd.nbytes, src=cmd.src)
        return cmd
    if isinstance(cmd, HostOp):
        start = max(ready, eng.host_engine.busy_until)
        end = start + cmd.duration
        eng.host_engine.occupy(start, end)
        _finish(eng, stream, cmd, "host", HOST, start, end)
        return cmd
    raise SimulationError(f"unknown command type {type(cmd).__name__}")


def _finish(eng, stream, cmd, kind, device, start, end, nbytes=0, src=None):
    stream.cursor = end
    if cmd.payload is not None:
        cmd.payload()
    eng.trace.add_row(kind, cmd.label, device, start, end, nbytes, src)


def install(node) -> None:
    """Dispatch ``node``'s eager runs through the reference :func:`run`."""
    node.engine.run = types.MethodType(run, node.engine)


#: Trace labels embed a global task counter (``kernel#7@gpu0``).
_TASK_ID = re.compile(r"#\d+")


def mask(label: str) -> str:
    return _TASK_ID.sub("#", label)


def _link_names(topology) -> dict[int, str]:
    """Link id -> name (channel keys hold ids, which differ across twins)."""
    names = {}
    for v in vars(topology).values():
        for link in v if isinstance(v, list) else [v]:
            if isinstance(link, Link):
                names[id(link)] = link.name
    return names


def engine_state(node) -> tuple:
    """Everything a later run reads: clock, counters, occupancy, the dead
    map, and every stream's cursor and queued commands."""
    eng = node.engine
    engines = [eng.host_engine]
    for d in eng.devices:
        engines += [d.compute, d.copy_in, d.copy_out]
    names = _link_names(node.topology)
    return (
        eng.now,
        eng.commands_executed,
        sorted(
            ((names[link], way), t)
            for (link, way), t in eng._channel_busy.items()
        ),
        [(e.busy_until, e.busy_time) for e in engines],
        sorted(eng.dead.items()),
        [
            (s.device, s.role, s.cursor,
             [(type(c).__name__, mask(c.label), c.earliest_start)
              for c in s.commands])
            for s in node.streams
        ],
    )


class Recorder:
    """Logs every ``Engine.run`` of one node — its result, or the raised
    error's type, time and command label — with the engine state it left,
    and every event the node records."""

    def __init__(self, node):
        self.node = node
        self.log: list[tuple] = []
        self.events: list = []
        eng = node.engine
        inner = eng.run  # the oracle's, when installed first

        def logged(streams, until=None):
            try:
                t = inner(streams, until)
            except Exception as e:
                cmd = getattr(e, "command", None)
                self.log.append((
                    type(e).__name__, getattr(e, "time", None),
                    None if cmd is None else mask(cmd.label),
                    engine_state(node),
                ))
                raise
            self.log.append(("ok", t, None, engine_state(node)))
            return t

        eng.run = logged
        record_event = node.record_event

        def recording(stream, label=""):
            ev = record_event(stream, label)
            self.events.append(ev)
            return ev

        node.record_event = recording

    def rows(self) -> list[tuple]:
        return [
            (r.kind, mask(r.label), r.device, r.start, r.end, r.nbytes, r.src)
            for r in self.node.trace.records
        ]

    def recorded(self) -> list:
        return [(mask(e.label), e.recorded_at) for e in self.events]
