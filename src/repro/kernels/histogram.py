"""Histogram kernels (§4.5.3 Fig. 4, §5.3 Fig. 8).

Two in-framework variants:

* **maps** — the Fig. 4 kernel: 1x1 Window input, Reductive (Static)
  output with device-level aggregators (shared-memory private histograms,
  committed in one coalesced write per thread-block). Architecture tuning
  is hidden behind the pattern (§5.3's closing point).
* **naive** — per-pixel *global* atomics; fine on Kepler, ~5x slower on
  Maxwell (paper: 6.09/6.41 ms vs 30.92 ms), because GM204 made shared
  atomics vastly preferable. Run multi-GPU as an unmodified routine.

The CUB comparator lives in :mod:`repro.libs.cub`.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.datum import Datum
from repro.core.graph import Call, Loop
from repro.core.grid import Grid
from repro.core.task import CostContext, Kernel
from repro.core.unmodified import RoutineContext, make_routine
from repro.libs.cub import make_cub_histogram_routine
from repro.patterns import NO_CHECKS, ReductiveStatic, Window2D

#: The paper's configuration: 256 bins over an 8-bit 8K^2 image.
DEFAULT_BINS = 256

#: ILP elements per thread in the Fig. 4 kernel.
ILP = 8


def _pixels(ctx: CostContext) -> int:
    win = next(c for c in ctx.containers if isinstance(c, Window2D))
    return win.required(ctx.grid.shape, ctx.work_rect).virtual.size


def histogram_body(ctx) -> None:
    """Fig. 4: bin = *image_iter; hist_iter[bin] += 1; hist.commit()."""
    image, hist = ctx.views
    hist.add_at(image.center())
    hist.commit()


def make_histogram_kernel(variant: str = "maps") -> Kernel:
    """The MAPS (device-level aggregator) or naive (global atomics)
    histogram kernel."""
    if variant == "maps":
        def cost(ctx: CostContext) -> float:
            return _pixels(ctx) / ctx.calib.maps_hist_rate

        return Kernel("histogram-maps", func=histogram_body, cost=cost)
    if variant == "naive":
        def cost(ctx: CostContext) -> float:
            return _pixels(ctx) / ctx.calib.global_atomic_rate

        return Kernel("histogram-naive", func=histogram_body, cost=cost)
    raise ValueError(f"unknown histogram variant {variant!r}")


def make_naive_histogram_routine() -> Kernel:
    """The naive single-GPU histogram wrapped as an unmodified routine
    (§5.3 runs it multi-GPU through the §4.6 mechanism)."""

    def body(ctx: RoutineContext) -> None:
        image, hist = ctx.parameters
        flat = image.reshape(-1)
        hist += np.bincount(flat, minlength=hist.size).astype(hist.dtype)

    def cost(ctx: CostContext) -> float:
        return _pixels(ctx) / ctx.calib.global_atomic_rate

    return make_routine("histogram-naive-routine", body, cost=cost)


def histogram_containers(image: Datum, hist: Datum):
    """Containers of Fig. 4: 1x1 window input, reductive-static output."""
    return (
        Window2D(image, 0, NO_CHECKS),
        ReductiveStatic(hist),
    )


def histogram_grid(image: Datum) -> Grid:
    """One thread per ILP-chunk of pixels; any row-divisible grid works
    since the window pattern rescales — we use one thread per pixel row
    chunk for simplicity."""
    return Grid(image.shape)


@functools.cache
def _loop_kernel(impl: str) -> Kernel:
    """One kernel per implementation, handed to every
    :func:`histogram_loop`: plans are keyed by kernel identity (DESIGN.md
    §7), so a kernel per loop would split a node's plans per loop."""
    if impl == "maps":
        return make_histogram_kernel("maps")
    if impl == "naive":
        return make_naive_histogram_routine()
    if impl == "cub":
        return make_cub_histogram_routine()
    raise ValueError(f"unknown histogram impl {impl!r}")


def histogram_loop(
    sched, image: Datum, hist: Datum, impl: str = "maps"
) -> Loop:
    """Histogram of ``image`` into ``hist``: the MAPS kernel, or the naive
    or CUB routine run unmodified (§5.3)."""
    return Loop.declare(sched, (Call(
        _loop_kernel(impl),
        histogram_containers(image, hist),
        histogram_grid(image),
    ),))
