"""The Task construct: kernel + containers + grid + constants (§4, Fig. 1a).

A *Task* is what the programmer submits to the scheduler: a user-provided
tuple of input and output containers (each a datum + access pattern),
kernel code, grid dimensions, and constant inputs — fixed-size parameters
needed by all GPUs (§4: "e.g., computational factors").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import SchedulingError
from repro.core.grid import Grid
from repro.patterns.base import Container, InputContainer, OutputContainer

if TYPE_CHECKING:  # pragma: no cover
    from repro.device_api.context import KernelContext
    from repro.hardware.calibration import GpuCalibration
    from repro.hardware.specs import GPUSpec
    from repro.utils.rect import Rect

_task_ids = itertools.count()


@dataclass(frozen=True)
class CostContext:
    """Everything a kernel cost model may inspect for one device's share."""

    work_rect: "Rect"
    grid: Grid
    containers: tuple[Container, ...]
    constants: Mapping[str, Any]
    spec: "GPUSpec"
    calib: "GpuCalibration"

    @property
    def work_items(self) -> int:
        return self.work_rect.size


#: A kernel cost model: seconds of device time for one device's share.
CostFn = Callable[[CostContext], float]

#: A functional kernel body: receives a KernelContext with device-level
#: views for each container.
KernelFn = Callable[["KernelContext"], None]


@dataclass(frozen=True)
class Kernel:
    """A MAPS-Multi kernel: functional body + calibrated cost model.

    Args:
        name: Kernel name (appears in traces).
        func: Functional body executed per device in functional mode. May
            be ``None`` for timing-only kernels. Receives a
            :class:`~repro.device_api.context.KernelContext`, or a
            :class:`~repro.core.unmodified.RoutineContext` when ``raw``.
        cost: Device-time model; defaults to a trivial per-item estimate.
        raw: Unmodified-routine mode (§4.6): the body receives raw segment
            arrays instead of pattern views.
        context: Programmer-generated context object for unmodified
            routines (e.g. per-GPU library handles, Fig. 5 line 2).
    """

    name: str
    func: Callable[[Any], None] | None = None
    cost: CostFn | None = None
    raw: bool = False
    context: Any = None

    def duration(self, ctx: CostContext) -> float:
        if self.cost is None:
            # Fallback: one memory-bound pass over the work items (4 B each).
            nbytes = 8.0 * ctx.work_items
            return nbytes / (ctx.spec.mem_bandwidth * ctx.calib.stream_efficiency)
        return self.cost(ctx)


class Task:
    """One analyzed/invocable unit of work."""

    def __init__(
        self,
        kernel: Kernel,
        containers: Sequence[Container],
        grid: Grid | None = None,
        constants: Mapping[str, Any] | None = None,
    ):
        if not containers:
            raise SchedulingError("a task needs at least one container")
        for c in containers:
            if not isinstance(c, Container):
                raise SchedulingError(
                    f"task argument {c!r} is not a pattern container"
                )
        self.id = next(_task_ids)
        self.kernel = kernel
        self.containers = tuple(containers)
        self.constants = dict(constants or {})
        #: Input/output views of ``containers`` (fixed at construction; the
        #: scheduler indexes into these on every invocation).
        self.inputs = [c for c in self.containers if isinstance(c, InputContainer)]
        self.outputs = [c for c in self.containers if isinstance(c, OutputContainer)]
        if not self.outputs:
            raise SchedulingError(
                f"task {kernel.name!r} has no output container"
            )
        self.grid = grid if grid is not None else self._implied_grid()
        self._validate()

    def _implied_grid(self) -> Grid:
        """Derive work dimensions from the first structured output (§2.1:
        indices coincide with the work dimensions)."""
        from repro.errors import PatternMismatchError

        for c in self.outputs:
            try:
                return Grid(c.work_shape_from_datum())
            except PatternMismatchError:
                continue
        raise SchedulingError(
            f"task {self.kernel.name!r} has no structured output to imply "
            "work dimensions; pass an explicit grid"
        )

    def _validate(self) -> None:
        for c in self.containers:
            c.validate(self.grid.shape)

    @staticmethod
    def rebind(
        shape: Any,
        containers: tuple[Container, ...],
        constants: Mapping[str, Any] | None = None,
    ) -> "Task":
        """A new task over ``containers`` with the kernel and grid of
        ``shape``: a task, or a :class:`~repro.core.plan.CallTemplate`.

        For containers of the same types and parameters as ``shape``'s,
        over datums of the same shapes and dtypes (the same datums, under
        one ``plan.prekey``; other datums, under one
        ``plan.geometry_key``): construction's checks read nothing else,
        so they would pass again and imply the same grid."""
        task = object.__new__(Task)
        task.id = next(_task_ids)
        task.kernel = shape.kernel
        task.containers = containers
        task.constants = dict(constants or {})
        task.inputs = [c for c in containers if isinstance(c, InputContainer)]
        task.outputs = [
            c for c in containers if isinstance(c, OutputContainer)
        ]
        task.grid = shape.grid
        return task

    @property
    def name(self) -> str:
        return f"{self.kernel.name}#{self.id}"

    def by_container(self, per_input, per_output) -> list:
        """Interleave items aligned with ``inputs`` and ``outputs`` into
        ``containers`` order."""
        ins, outs = iter(per_input), iter(per_output)
        return [
            next(ins) if isinstance(c, InputContainer) else next(outs)
            for c in self.containers
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name}, grid={self.grid.shape})"


@dataclass(eq=False)
class TaskHandle:
    """Returned by ``Scheduler.invoke``; passed to ``Scheduler.wait``."""

    task: Task
    #: Per-device kernel completion events (empty for idle devices).
    events: list = field(default_factory=list)
    submitted_at: float = 0.0
    #: Sanitize mode: device -> the access recorder of its kernel.
    recorders: dict | None = None

    @property
    def name(self) -> str:
        return self.task.name

    @property
    def complete(self) -> bool:
        """Whether every completion event has been recorded."""
        return all(e.recorded for e in self.events)
