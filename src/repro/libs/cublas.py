"""Simulated CUBLAS: single-GPU BLAS routines with calibrated throughput.

The paper's SGEMM experiments (§5.1, §5.4, Table 4) run *unmodified*
CUBLAS through the §4.6 wrapper mechanism — MAPS-Multi partitions the
matrices and calls the native routine per device. This module provides
those wrappers: the functional bodies are numpy BLAS calls; the cost
models use the per-architecture effective SGEMM rates back-derived from
Table 4 (see :mod:`repro.hardware.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.datum import Datum
from repro.core.graph import Call, Loop
from repro.core.task import CostContext, Kernel
from repro.core.unmodified import RoutineContext, make_routine
from repro.patterns import (
    NO_CHECKS,
    Block2D,
    Block2DTransposed,
    StructuredInjective,
    Window1D,
    WindowND,
)


@dataclass
class CublasContext:
    """Per-GPU library handles (the Fig. 5 ``CUBLASContext``). In the
    simulation the handle is just a created-flag, but user code follows
    the same create-handles-then-pass-context protocol as with the real
    library."""

    num_gpus: int
    handles: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.handles = [f"cublas-handle-{d}" for d in range(self.num_gpus)]


def gemm_size_efficiency(m: int, n: int, k: int) -> float:
    """Fraction of the large-matrix SGEMM rate achieved at a given size.

    Large GEMMs run at the calibrated Table 4 rate; GEMMs whose smallest
    dimension drops below the blocking tile (~128) lose efficiency roughly
    linearly in that dimension (tile under-utilization), floored at 5 %.
    """
    smallest = min(m, n, k)
    return max(0.05, min(1.0, smallest / 128.0))


def gemm_flops(m: int, n: int, k: int) -> float:
    return 2.0 * m * n * k


def gemm_time(ctx: CostContext, m: int, n: int, k: int) -> float:
    """Modelled SGEMM device time at the calibrated effective rate."""
    rate = ctx.calib.sgemm_flops * gemm_size_efficiency(m, n, k)
    return gemm_flops(m, n, k) / rate


def make_sgemm_routine(context: CublasContext | None = None) -> Kernel:
    """``C = alpha * A @ B + beta * C`` partitioned by rows of C.

    Containers: ``Block2D(A), Block2DTransposed(B), StructuredInjective(C)``
    (Table 1's matrix-multiplication patterns), plus ``WindowND(C, 0)``
    prepended when ``beta != 0`` (C is then read-write).
    Constants: ``alpha`` (default 1), ``beta`` (default 0).
    """

    def body(rc: RoutineContext) -> None:
        alpha = rc.constant("alpha", 1.0)
        beta = rc.constant("beta", 0.0)
        if beta:
            c_in, a, b, c = rc.parameters
            c[...] = alpha * (a @ b) + beta * c_in
        else:
            a, b, c = rc.parameters
            c[...] = alpha * (a @ b)

    def cost(ctx: CostContext) -> float:
        out = next(
            c for c in ctx.containers if isinstance(c, StructuredInjective)
        )
        owned = out.owned(ctx.grid.shape, ctx.work_rect)
        m_local, n = owned.shape
        a = next(c for c in ctx.containers if isinstance(c, Block2D))
        k = a.datum.shape[1]
        return gemm_time(ctx, m_local, n, k)

    return make_routine("cublasSgemm", body, cost=cost, context=context)


def sgemm_containers(a: Datum, b: Datum, c: Datum, beta: float = 0.0):
    """The matmul container tuple (first/second operand patterns of
    Table 1)."""
    base = (Block2D(a), Block2DTransposed(b), StructuredInjective(c))
    if beta:
        return (WindowND(c, 0, NO_CHECKS),) + base
    return base


#: The one routine every :func:`sgemm_chain` runs: plans are keyed by
#: kernel identity (DESIGN.md §7), so a routine per loop would split a
#: node's plans per loop.
_CHAIN_ROUTINE = make_sgemm_routine()


def sgemm_chain(sched, x: Datum, b: Datum, y: Datum) -> Loop:
    """Chained SGEMM X_{i+1} = X_i @ B over unmodified CUBLAS (§5.4):
    even iterations multiply ``x`` into ``y``."""
    return Loop.declare(sched, (
        Call(_CHAIN_ROUTINE, sgemm_containers(x, b, y)),
        Call(_CHAIN_ROUTINE, sgemm_containers(y, b, x)),
    ))


def make_saxpy_routine(context: CublasContext | None = None) -> Kernel:
    """``y = alpha * x + y`` — the Fig. 5 wrapper. Containers:
    ``Window1D(x, 0), Window1D(y, 0), StructuredInjective(y)``."""

    def body(rc: RoutineContext) -> None:
        alpha = rc.constant("alpha", 0.0)
        n = rc.segment_dims(2)[0]
        x, y_in, y_out = rc.parameters
        assert y_out.shape[0] == n
        y_out[...] = alpha * x + y_in

    def cost(ctx: CostContext) -> float:
        out = ctx.containers[2]
        elems = out.owned(ctx.grid.shape, ctx.work_rect).size
        return 3 * 4 * elems / (
            ctx.spec.mem_bandwidth * ctx.calib.stream_efficiency
        )

    return make_routine("cublasSaxpy", body, cost=cost, context=context)


def saxpy_containers(x: Datum, y: Datum):
    return (
        Window1D(x, 0, NO_CHECKS),
        Window1D(y, 0, NO_CHECKS),
        StructuredInjective(y),
    )
