"""Fault recovery (DESIGN.md §8): the handlers behind the scheduler's one
fault loop, ``Scheduler._drive``.

Every loop that runs the simulation (``wait``, ``wait_all`` and the
pressure hook's drain) goes through ``_drive``, which catches the
engine's typed faults. A :class:`~repro.errors.TransientTransferError` is
retried (:func:`retry_transfer`) — from an alternate valid replica found
via the Segment Location Monitor when one exists — after a capped
exponential backoff in simulated time. A permanent
:class:`~repro.errors.DeviceFault` (or an injected allocation failure)
retires the device (:func:`recover`): all queued commands are aborted, the
monitor is purged of state the fault made untrue, plans segmented over the
dead device are invalidated, and every incomplete task and gather is
resubmitted — in original submission order — across the surviving devices.
Recovery succeeds iff every incomplete task's inputs still have a valid
replica somewhere (host or surviving device); otherwise
:class:`~repro.errors.UnrecoverableError` tells the application to restart
from its own checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Optional

from repro.core.datum import Datum
from repro.core.location_monitor import CopyOp
from repro.core.task import TaskHandle
from repro.errors import (
    AllocationError,
    SchedulingError,
    TransientTransferError,
    UnrecoverableError,
)
from repro.sim.commands import Event, EventWait
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler


class _RescheduleError(Exception):
    """Internal control flow: the pressure hook's drain inside a replay
    recovered from a fault (retiring a device), so the replay's plan is
    stale — abort it and reschedule against the new alive set. Never
    escapes the scheduler."""


@dataclass(slots=True)
class _TransferContext:
    """Provenance attached to a segment-copy Memcpy (``cmd.origin``) so a
    transient fault on it can be retried from an alternate replica.
    Aggregation/reduce-scatter transfers carry no context and are retried
    over the same route.

    ``payload_factory(op) -> payload`` overrides the default
    analyzer-buffer payload when the copy's destination is not the
    analyzer's allocation (chunk staging buffers, DESIGN.md §10): a retry
    or hedge from an alternate replica (:func:`reroute`) must rebuild the
    payload against the same staging destination."""

    datum: Optional[Datum]
    op: Optional[CopyOp]
    done_event: Optional[Event]
    attempt: int = 0
    payload_factory: Any = None
    #: Set once the straggler watchdog alarmed on this copy; a hedged or
    #: declined transfer runs to completion without re-alarming.
    alarmed: bool = False


@dataclass
class _GatherRecord:
    """A gather the application requested, tracked until its transfers
    complete so an aborting fault cannot silently leave the host buffer
    stale — recovery re-issues any gather with unrecorded events."""

    datum: Datum
    region: Optional[Rect]  # None = whole datum (may aggregate)
    events: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(e is None or e.recorded for e in self.events)


def alternate(
    sched: "Scheduler", ctx: Optional[_TransferContext]
) -> Optional[tuple[int, Optional[Event]]]:
    """The first ready replica (peer devices first, host last) of a
    segment copy's bytes other than its current source, as ``(src,
    producer event)``; None for copies without provenance. Only ready
    replicas are eligible (see LocationMonitor.ready_replicas)."""
    op = ctx.op if ctx is not None else None
    if op is None:
        return None
    ready = sched.monitor.ready_replicas(
        ctx.datum, op.actual, exclude=(op.src,),
        dead=sched.node.engine.dead,
    )
    return ready[0] if ready else None


def reroute(
    sched: "Scheduler", cmd, stream, alt: tuple[int, Optional[Event]],
    kind: str, not_before: float,
) -> None:
    """Re-issue a segment copy from the alternate replica ``alt``
    (``kind`` is ``"retry"`` or ``"hedge"``, also the label prefix),
    starting no earlier than ``not_before``. The replacement goes to
    the *front* of the copy's stream, so the already queued completion
    EventRecord still publishes the copy to its waiters. Chunk-staging
    copies rebuild their payload against the same staging destination
    (``payload_factory``); regular copies target the analyzer's
    buffer."""
    ctx = cmd.origin
    op = ctx.op
    src, src_ev = alt
    new_op = CopyOp(src, op.dst, op.actual, src_ev)
    ctx.op = new_op
    payload = None
    if sched.node.functional:
        make = ctx.payload_factory
        payload = make(new_op) if make else sched._copy_payload(ctx.datum, new_op)
    replacement = replace(
        cmd, label=f"{kind}:{cmd.label}", payload=payload, src=src,
        earliest_start=max(cmd.earliest_start, not_before),
    )
    stream.commands.appendleft(replacement)
    if src_ev is not None:
        # Already recorded (eligibility filter), but waiting pins the
        # replacement's start after the replica's producer. A retry's
        # wait keeps the faulted copy's own start; a hedge's starts
        # with its replacement at the hedging deadline.
        stream.commands.appendleft(EventWait(
            earliest_start=(
                cmd.earliest_start if kind == "retry"
                else replacement.earliest_start
            ),
            event=src_ev,
        ))
        if ctx.done_event is not None:
            sched.monitor.mark_read(
                ctx.datum, src, ctx.done_event, sched.node.host_time
            )


def retry_transfer(sched: "Scheduler", fault: TransientTransferError) -> None:
    """Re-queue a transiently-faulted memcpy after a capped exponential
    backoff in simulated time.

    A segment copy (it carries a :class:`_TransferContext`) is retried
    from an alternate valid replica (:func:`alternate`) when the
    location monitor knows one, via :func:`reroute`; otherwise over
    the original route, which is always safe because the original
    source dependency was already satisfied before the first attempt.
    """
    plan = sched.node.faults
    cmd, stream = fault.command, fault.stream
    ctx = cmd.origin
    if ctx is None:
        ctx = cmd.origin = _TransferContext(None, None, None)
    ctx.attempt += 1
    if ctx.attempt > plan.max_retries:
        raise UnrecoverableError(
            f"transfer {cmd.label!r} still failing after "
            f"{ctx.attempt - 1} retries"
        ) from fault
    not_before = fault.time + plan.backoff(ctx.attempt)
    alt = alternate(sched, ctx)
    if alt is None:
        cmd.earliest_start = max(cmd.earliest_start, not_before)
        stream.commands.appendleft(cmd)
        return
    reroute(sched, cmd, stream, alt, "retry", not_before)


def recover(sched: "Scheduler", device: int, at_time: float) -> None:
    """Permanent-failure recovery: retire the device and resubmit every
    incomplete task and gather over the survivors (in original
    submission order, so recomputed values flow exactly as first
    scheduled). Cascading injected allocation failures during
    resubmission retire further devices."""
    while True:
        try:
            _retire_device(sched, device, at_time)
            _resubmit(sched)
            return
        except AllocationError as e:
            if not e.injected:
                raise
            device, at_time = e.device, sched.node.time


def _retire_device(sched: "Scheduler", device: int, at_time: float) -> None:
    """Drop one device from the schedulable set and purge every piece
    of host-side state that mentioned it."""
    alive = tuple(d for d in sched._alive if d != device)
    if not alive:
        raise UnrecoverableError(
            f"device {device} failed at t={at_time:.6g} and no devices "
            "survive; restart from an application checkpoint"
        )
    sched._alive = alive
    sched._graph_generation += 1
    node = sched.node
    node.retire_device(device, at_time)
    # Abort everything in flight: queued commands reference dead
    # buffers and events that will never record. Incomplete work is
    # re-issued from the submission log instead.
    for s in node.streams:
        s.commands.clear()
    node.host_time = max(node.host_time, at_time)
    # The stream purge destroyed the chunk pools' deferred free (on the
    # dead device, freeing is accounting hygiene only).
    sched._pressure.free_pools()
    sched.monitor.invalidate_for_recovery((device,))
    sched.plans.invalidate_device(device)
    sched.analyzer.drop_device(device)
    if sched._mitigator is not None:
        sched._mitigator.forget(device)
    # Re-segmenting over the survivors grows their requirement boxes;
    # re-analyze every declared task so allocations are resized before
    # resubmission.
    sched._reanalyze()


def _resubmit(sched: "Scheduler") -> None:
    """Re-issue incomplete tasks and gathers in submission order."""
    log = list(sched._log)
    for i, entry in enumerate(log):
        if entry.complete:
            continue
        if isinstance(entry, TaskHandle):
            task = entry.task
            try:
                sched._replay(task, sched._lookup_or_build(task), entry)
            except _RescheduleError:
                # A drain inside the replay retired another device;
                # the nested recovery already resubmitted every
                # incomplete entry over the new alive set.
                return
            except SchedulingError as e:
                # A needed input segment has no surviving replica: the
                # fault destroyed data that was never checkpointed.
                raise UnrecoverableError(
                    f"cannot resubmit task {task.name!r}: {e}"
                ) from e
            continue
        try:
            entry.events = sched._gather_events(entry.datum, entry.region)
        except (SchedulingError, UnrecoverableError) as e:
            # The fault landed between a task's completion and its
            # checkpoint copy-out: the task counts as done, but part of
            # its output (a stripe, or an aggregation partial) died with
            # the device. The producing task is still in the log (see
            # prune_log), so recompute it from its own inputs, then
            # retry the gather.
            if not _recompute_producer(sched, entry.datum, log[:i]):
                raise UnrecoverableError(
                    f"cannot re-issue gather of {entry.datum.name!r}: {e}"
                ) from e
            try:
                entry.events = sched._gather_events(entry.datum, entry.region)
            except SchedulingError as e2:
                raise UnrecoverableError(
                    f"cannot re-issue gather of {entry.datum.name!r}: {e2}"
                ) from e2


def _recompute_producer(
    sched: "Scheduler", datum: Datum, preceding: list
) -> bool:
    """Force-resubmit the most recent logged task writing ``datum``.

    Returns False when no such task is in the log, or its own inputs
    have no surviving replica (only one producer level is recomputed:
    an application checkpointing every step never needs more; one that
    doesn't has no host anchor to recompute from anyway)."""
    for entry in reversed(preceding):
        if not isinstance(entry, TaskHandle) or not any(
            c.datum is datum for c in entry.task.outputs
        ):
            continue
        while True:
            try:
                sched._replay(
                    entry.task, sched._lookup_or_build(entry.task), entry
                )
            except _RescheduleError:
                # Nested recovery shrank the alive set mid-replay; the
                # producer (complete in the log, so skipped by the
                # nested resubmission) still needs this recompute —
                # retry it over the survivors.
                continue
            except SchedulingError:
                return False
            return True
    return False


def prune_log(sched: "Scheduler", keep_producers: bool) -> None:
    """Bound the submission log so it does not grow with the number of
    invocations.

    After ``wait_all`` everything ran, so nothing before this point can
    ever need resubmission: completed entries are dropped. After a
    ``wait`` (``keep_producers``) the log is pruned only once every
    entry is complete, down to the latest logged producer of each datum
    — all :func:`_recompute_producer` can use when a later fault takes
    a device holding the only replica of that producer's output."""
    log = sched._log
    if not keep_producers:
        sched._log = [e for e in log if not e.complete]
        return
    if not all(e.complete for e in log):
        return
    latest = {
        id(c.datum): e
        for e in log if isinstance(e, TaskHandle) for c in e.task.outputs
    }
    keep = {id(e) for e in latest.values()}
    sched._log = [e for e in log if id(e) in keep]
