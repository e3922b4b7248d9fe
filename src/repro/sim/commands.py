"""Command objects queued to simulated streams.

Mirrors the CUDA command model the paper builds on (§2): kernels and
memory copies are enqueued to per-device *streams* (in-order queues);
*events* provide cross-stream synchronization. Each command optionally
carries a functional *payload* — a Python callable performing the real
numpy computation — executed when the simulator dispatches the command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

Payload = Optional[Callable[[], None]]

#: Global event creation counter. Iteration-graph capture (DESIGN.md §12)
#: checks that the events of the captured period were created back to
#: back, so slot ``s`` of the period is the event with sequence number
#: ``S0 + s``.
_event_seqs = itertools.count()


@dataclass(eq=False, slots=True)
class Event:
    """A CUDA-style event: recorded on a stream, waitable from others."""

    label: str = ""
    #: Simulated time at which the event was recorded; None until executed.
    recorded_at: float | None = None
    #: Monotone creation sequence number (see :data:`_event_seqs`).
    seq: int = field(default_factory=_event_seqs.__next__)

    @property
    def recorded(self) -> bool:
        return self.recorded_at is not None


@dataclass(eq=False, slots=True)
class Command:
    """Base class for all queued commands."""

    payload: Payload = None
    #: Host submission time — the command may not start before this (models
    #: the host thread that enqueued it).
    earliest_start: float = 0.0


@dataclass(eq=False, slots=True)
class KernelLaunch(Command):
    """A kernel execution on a device's compute engine."""

    label: str = ""
    duration: float = 0.0
    #: Scheduler-attached provenance (task/segment context) so the
    #: straggler watchdog can speculatively re-execute a lagging segment
    #: on another device (DESIGN.md §11). Opaque to the engine.
    origin: Any = None
    #: ``Engine.lower``'s opcode, set at enqueue (see :class:`Memcpy`).
    op: Any = field(default=None, init=False)


@dataclass(eq=False, slots=True)
class Memcpy(Command):
    """A DMA transfer between host and/or device memories.

    ``src``/``dst`` are device indices or :data:`repro.hardware.HOST`.
    ``pageable`` selects the slow pageable-host path; ``extra_latency``
    adds fixed software latency (e.g. MPI/IPC staging in the NMF-mGPU
    baseline).
    """

    label: str = ""
    src: int = 0
    dst: int = 0
    nbytes: int = 0
    pageable: bool = False
    extra_latency: float = 0.0
    #: Scheduler-attached provenance (a retry context) so an injected
    #: transient fault can be retried from an alternate replica. Opaque to
    #: the engine.
    origin: Any = None
    #: ``Engine.lower``'s opcode (resolved route, duration, label and
    #: payload), set at enqueue. Not an init field, so
    #: ``dataclasses.replace`` (a rerouted retry) starts unset and the
    #: engine lowers the new command at dispatch.
    op: Any = field(default=None, init=False)


@dataclass(eq=False, slots=True)
class EventRecord(Command):
    label: str = ""
    event: Event | None = None
    #: The record opcode; the engine reads the event from the command.
    op = (1,)


@dataclass(eq=False, slots=True)
class EventWait(Command):
    event: Event | None = None
    #: The wait opcode; the engine reads the event from the command.
    op = (0,)

    @property
    def label(self) -> str:
        """Built on read: no trace row or dispatch reads it."""
        return f"wait:{self.event.label if self.event is not None else ''}"


@dataclass(eq=False, slots=True)
class HostOp(Command):
    """Host-side work (e.g. host-level aggregation after a gather)."""

    label: str = ""
    duration: float = 0.0
    op: Any = field(default=None, init=False)
