"""Game of Life kernels — the paper's running example (§4, §5.1–5.2).

Three implementation schemes, matching Fig. 7:

* **naive** — per-cell global loads (texture-cached) and stores; fastest
  of the simple schemes thanks to the small integer workload.
* **maps** — MAPS shared-memory staging without ILP; the staging latency
  for 3x3 neighborhoods makes it 20–50 % *slower* than naive.
* **maps_ilp** — shared memory + automatic ILP with 8 elements (4 columns,
  2 rows) per thread (§5.2): ~2.42x faster than naive.

All three share one functional body (the rules don't change); the variants
differ in their calibrated cost models and, for ``maps_ilp``, in the ILP
factors their containers declare.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.datum import Datum
from repro.core.graph import Call, Loop
from repro.core.task import CostContext, Kernel
from repro.patterns import WRAP, Boundary, StructuredInjective, Window2D

#: The ILP configuration of §5.2: 4 columns x 2 rows = 8 elements/thread.
ILP_ROWS, ILP_COLS = 2, 4


def _cells(ctx: CostContext) -> int:
    """Cells processed by this device = its share of the output datum."""
    out = next(c for c in ctx.containers if isinstance(c, StructuredInjective))
    return out.owned(ctx.grid.shape, ctx.work_rect).size


def game_of_life_body(ctx) -> None:
    """One tick: B(3)/S(23) rules over an 8-neighborhood."""
    cur, nxt = ctx.views
    neighbors = cur.neighborhood_sum()
    alive = cur.center()
    nxt.write(
        ((neighbors == 3) | ((alive == 1) & (neighbors == 2))).astype(
            nxt.array.dtype
        )
    )
    nxt.commit()


def make_gol_kernel(variant: str = "maps_ilp") -> Kernel:
    """Build one of the three Fig. 7 Game-of-Life kernel variants."""
    rates = {
        "naive": lambda c: c.gol_naive_rate,
        "maps": lambda c: c.gol_maps_rate,
        "maps_ilp": lambda c: c.gol_ilp_rate,
    }
    try:
        rate = rates[variant]
    except KeyError:
        raise ValueError(
            f"unknown Game of Life variant {variant!r}; "
            f"want one of {sorted(rates)}"
        ) from None

    def cost(ctx: CostContext) -> float:
        return _cells(ctx) / rate(ctx.calib)

    return Kernel(f"gol-{variant}", func=game_of_life_body, cost=cost)


def make_gol_oob_kernel() -> Kernel:
    """A deliberately out-of-pattern Game of Life variant (sanitizer demo).

    The kernel declares the standard radius-1 window but reads two rows
    above the center — exactly the class of bug the sanitizer exists for:
    on one device the whole board is resident and the kernel is correct;
    on a multi-GPU node the second halo row is never copied, so the
    kernel silently reads stale or unbacked memory. In normal execution
    the framework rejects the access (DeviceError); under
    ``repro.sanitize`` it is recorded and reported as an
    :class:`~repro.sanitize.errors.OutOfPatternReadError`.
    """

    def body(ctx) -> None:
        cur, nxt = ctx.views
        neighbors = cur.neighborhood_sum()
        far = cur.offset(-2, 0)  # BUG: beyond the declared 1-halo window
        alive = cur.center()
        nxt.write(
            (
                (neighbors == 3) | ((alive == 1) & (neighbors == 2))
            ).astype(nxt.array.dtype)
            + (far * 0).astype(nxt.array.dtype)
        )
        nxt.commit()

    def cost(ctx: CostContext) -> float:
        return _cells(ctx) / ctx.calib.gol_naive_rate

    return Kernel("gol-oob", func=body, cost=cost)


def gol_containers(
    src: Datum,
    dst: Datum,
    variant: str = "maps_ilp",
    boundary: Boundary = WRAP,
):
    """Input/output containers for one tick (Fig. 2a lines 17–19).

    The ILP variant declares 8 elements per thread via the output
    container's ILP factors; the matching input window sees the same work
    dimensions (Fig. 2b, §4.5.1).
    """
    ilp = (ILP_ROWS, ILP_COLS) if variant == "maps_ilp" else 1
    return Window2D(src, 1, boundary), StructuredInjective(dst, ilp=ilp)


#: One kernel per variant, handed to every :func:`gol_loop`: plans are
#: keyed by kernel identity (DESIGN.md §7), so a kernel per loop would
#: split a node's plans per loop.
_loop_kernel = functools.cache(make_gol_kernel)


def gol_loop(sched, a: Datum, b: Datum, variant: str = "maps_ilp") -> Loop:
    """Game of Life ping-pong: even iterations step ``a`` into ``b``."""
    kernel = _loop_kernel(variant)
    return Loop.declare(sched, (
        Call(kernel, gol_containers(a, b, variant)),
        Call(kernel, gol_containers(b, a, variant)),
    ))


def gol_reference_step(board: np.ndarray, wrap: bool = True) -> np.ndarray:
    """Plain-numpy reference tick (for tests and examples)."""
    if wrap:
        neighbors = sum(
            np.roll(np.roll(board, dy, 0), dx, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dy, dx) != (0, 0)
        )
    else:
        p = np.pad(board, 1)
        h, w = board.shape
        neighbors = sum(
            p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dy, dx) != (0, 0)
        )
    return ((neighbors == 3) | ((board == 1) & (neighbors == 2))).astype(
        board.dtype
    )
