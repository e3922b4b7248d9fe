"""NMF over MAPS-Multi (§6.2, Figs. 12-13).

The update rule decomposes into the Fig. 12 task chain. Partitioning
follows the figure's key property: V, WH, V~ and W are processed in
independent *row stripes* — no device ever holds a complete copy of the
large V — while the small H (k x m, k << n) is the only replicated datum.
The framework infers exactly two inter-GPU exchange points per iteration
(§6.2): the reduce-scatter of the Acc accumulator before the H update,
and the all-gather of the freshly updated H stripes before the W phase.

:class:`MapsNMF` runs on the scheduler it is given and declares its eight
update calls once, as a :class:`~repro.core.graph.Loop`, and the
squared-error reduction as a loop of one call: ``run_iteration`` and
``factorize`` submit whole periods, ``measure_iteration`` times steady
ones (:meth:`Loop.measure <repro.core.graph.Loop.measure>`) and
``error`` re-invokes the iteration's WH call, then the reduction.
"""

from __future__ import annotations

import numpy as np

from repro.apps.nmf.algorithm import EPS
from repro.core import Grid, Matrix, Scheduler, Vector
from repro.core.graph import Call, Loop
from repro.core.task import CostContext, Kernel
from repro.core.unmodified import RoutineContext, make_routine
from repro.libs.cublas import gemm_time
from repro.patterns import (
    Block2D,
    Block2DTransposed,
    BlockStriped,
    InjectiveStriped,
    ReductiveStatic,
)


def _stream(ctx: CostContext, nbytes: float) -> float:
    return nbytes / (ctx.spec.mem_bandwidth * ctx.calib.stream_efficiency)


def _make_wh() -> Kernel:
    """WH stripe = W stripe @ H. Containers: Block2D(W),
    Block2DTransposed(H), InjectiveStriped(WH); grid (n,)."""

    def body(rc: RoutineContext) -> None:
        w, h, wh = rc.parameters
        wh[...] = w @ h

    def cost(ctx: CostContext) -> float:
        w = ctx.containers[0].datum
        h = ctx.containers[1].datum
        return gemm_time(ctx, ctx.work_rect[0].size, h.shape[1], w.shape[1])

    return make_routine("nmfWH", body, cost=cost)


def _make_vdiv() -> Kernel:
    """V~ stripe = V / (WH + eps). Containers: BlockStriped(V),
    BlockStriped(WH), InjectiveStriped(V~)."""

    def body(rc: RoutineContext) -> None:
        v, wh, vt = rc.parameters
        vt[...] = v / (wh + EPS)

    def cost(ctx: CostContext) -> float:
        v = ctx.containers[0].datum
        n = ctx.work_rect[0].size * v.shape[1]
        return _stream(ctx, 3 * 4 * n)

    return make_routine("nmfVdiv", body, cost=cost)


def _make_acc() -> Kernel:
    """Acc += W_s^T @ V~_s; col += colsums(W_s) — the reductions over the
    partitioned rows (orange blocks of Fig. 12). Containers:
    BlockStriped(W), BlockStriped(V~), ReductiveStatic(Acc),
    ReductiveStatic(col); grid (n,)."""

    def body(rc: RoutineContext) -> None:
        w, vt, acc, col = rc.parameters
        acc += w.T @ vt
        col += w.sum(axis=0)

    def cost(ctx: CostContext) -> float:
        w = ctx.containers[0].datum
        vt = ctx.containers[1].datum
        return gemm_time(
            ctx, w.shape[1], vt.shape[1], ctx.work_rect[0].size
        )

    return make_routine("nmfAcc", body, cost=cost)


def _make_h_update() -> Kernel:
    """H = H * Acc / col. Containers: BlockStriped(H), BlockStriped(Acc),
    BlockStriped(col), InjectiveStriped(H); grid (k,). Consuming the
    reductive Acc/col here triggers the peer-to-peer reduce-scatter."""

    def body(rc: RoutineContext) -> None:
        h_in, acc, col, h_out = rc.parameters
        h_out[...] = h_in * acc / (col[:, None] + EPS)

    def cost(ctx: CostContext) -> float:
        h = ctx.containers[0].datum
        n = ctx.work_rect[0].size * h.shape[1]
        return _stream(ctx, 4 * 4 * n)

    return make_routine("nmfHUpdate", body, cost=cost)


def _make_num() -> Kernel:
    """Num stripe = V~_s @ H^T (local: H is replicated). Containers:
    BlockStriped(V~), Block2DTransposed(H), InjectiveStriped(Num);
    grid (n,)."""

    def body(rc: RoutineContext) -> None:
        vt, h, num = rc.parameters
        num[...] = vt @ h.T

    def cost(ctx: CostContext) -> float:
        h = ctx.containers[1].datum
        return gemm_time(
            ctx, ctx.work_rect[0].size, h.shape[0], h.shape[1]
        )

    return make_routine("nmfNum", body, cost=cost)


def _make_w_update() -> Kernel:
    """W = W * Num / rowsums(H). Containers: BlockStriped(W),
    BlockStriped(Num), Block2DTransposed(H), InjectiveStriped(W);
    grid (n,)."""

    def body(rc: RoutineContext) -> None:
        w_in, num, h, w_out = rc.parameters
        w_out[...] = w_in * num / (h.sum(axis=1)[None, :] + EPS)

    def cost(ctx: CostContext) -> float:
        w = ctx.containers[0].datum
        n = ctx.work_rect[0].size * w.shape[1]
        return _stream(ctx, 4 * 4 * n)

    return make_routine("nmfWUpdate", body, cost=cost)


def _make_sqerr() -> Kernel:
    """err += ||V_s - WH_s||^2 partials. Containers: BlockStriped(V),
    BlockStriped(WH), ReductiveStatic(err); grid (n,)."""

    def body(rc: RoutineContext) -> None:
        v, wh, err = rc.parameters
        d = v - wh
        err += (d * d).sum()

    def cost(ctx: CostContext) -> float:
        v = ctx.containers[0].datum
        n = ctx.work_rect[0].size * v.shape[1]
        return _stream(ctx, 2 * 4 * n)

    return make_routine("nmfSqErr", body, cost=cost)


class MapsNMF:
    """Multi-GPU NMF of a bound V into W @ H over MAPS-Multi, on the
    scheduler ``sched`` (a functional node factorizes ``v``; a timing-only
    one takes its ``(n, m)`` shape)."""

    def __init__(
        self,
        sched: Scheduler,
        v: np.ndarray | tuple[int, int],
        k: int = 128,
        seed: int = 0,
    ):
        self.sched = sched
        self.node = sched.node
        if isinstance(v, np.ndarray):
            n, m = v.shape
        elif self.node.functional:
            raise ValueError(
                f"MapsNMF on a functional node factorizes an array, not "
                f"the shape {tuple(v)}: pass the matrix V, or use a "
                f"timing-only node (SimNode(..., functional=False))"
            )
        else:
            n, m = v
        self.n, self.m, self.k = n, m, k

        self.V = Matrix(n, m, np.float32, "V")
        self.W = Matrix(n, k, np.float32, "W")
        self.H = Matrix(k, m, np.float32, "H")
        self.WH = Matrix(n, m, np.float32, "WH")
        self.Vt = Matrix(n, m, np.float32, "Vt")
        self.Acc = Matrix(k, m, np.float32, "Acc")
        self.col = Vector(k, np.float32, "col")
        self.Num = Matrix(n, k, np.float32, "Num")
        self.err = Vector(1, np.float64, "err")
        if self.node.functional:
            rng = np.random.default_rng(seed)
            self.V.bind(np.ascontiguousarray(v, dtype=np.float32))
            self.W.bind(rng.random((n, k), dtype=np.float32) + 0.1)
            self.H.bind(rng.random((k, m), dtype=np.float32) + 0.1)
            for d in (self.WH, self.Vt, self.Acc, self.Num):
                d.bind(np.zeros(d.shape, np.float32))
            self.col.bind(np.zeros(k, np.float32))
            self.err.bind(np.zeros(1, np.float64))

        ngrid, kgrid = Grid((n,)), Grid((k,), block0=1)
        k_wh, k_vdiv = _make_wh(), _make_vdiv()
        k_acc, k_hup = _make_acc(), _make_h_update()
        k_num, k_wup = _make_num(), _make_w_update()
        k_err = _make_sqerr()
        wh = Call(
            k_wh,
            (Block2D(self.W), Block2DTransposed(self.H),
             InjectiveStriped(self.WH)),
            ngrid,
        )
        vdiv = Call(
            k_vdiv,
            (BlockStriped(self.V), BlockStriped(self.WH),
             InjectiveStriped(self.Vt)),
            ngrid,
        )
        #: One H-then-W update, declared once (Fig. 12). Its first call,
        #: WH, is the one :meth:`error` re-invokes.
        self.loop = Loop.declare(sched, (
            # H phase.
            wh,
            vdiv,
            Call(k_acc, (BlockStriped(self.W), BlockStriped(self.Vt),
                         ReductiveStatic(self.Acc), ReductiveStatic(self.col)),
                 ngrid),
            Call(k_hup, (BlockStriped(self.H), BlockStriped(self.Acc),
                         BlockStriped(self.col), InjectiveStriped(self.H)),
                 kgrid),
            # W phase (the fresh H stripes all-gather here).
            wh,
            vdiv,
            Call(k_num, (BlockStriped(self.Vt), Block2DTransposed(self.H),
                         InjectiveStriped(self.Num)),
                 ngrid),
            Call(k_wup, (BlockStriped(self.W), BlockStriped(self.Num),
                         Block2DTransposed(self.H), InjectiveStriped(self.W)),
                 ngrid),
        ))
        #: The squared-error reduction over the current WH.
        self._sqerr = Loop.declare(sched, (Call(
            k_err,
            (BlockStriped(self.V), BlockStriped(self.WH),
             ReductiveStatic(self.err)),
            ngrid,
        ),))

    def run_iteration(self) -> None:
        """Queue one full (H then W) update."""
        self.loop.submit()

    def error(self) -> float:
        """Queue WH + squared-error tasks and return ||V - WH||_F."""
        self.loop.step(0)
        self._sqerr.step(0)
        self.sched.gather(self.err)
        return float(np.sqrt(self.err.host[0]))

    def factorize(self, iterations: int) -> tuple[np.ndarray, np.ndarray]:
        """Run ``iterations`` updates and gather W, H to the host."""
        self.loop.submit(iterations)
        self.sched.gather_async(self.W)
        self.sched.gather_async(self.H)
        self.sched.wait_all()
        return self.W.host, self.H.host

    def measure_iteration(self, warmup: int = 1, iters: int = 3) -> float:
        """Timing mode: steady-state simulated seconds per iteration."""
        return self.loop.measure(warmup, iters)

    def throughput(self) -> float:
        """Iterations per second (the Fig. 13 metric)."""
        return 1.0 / self.measure_iteration()
