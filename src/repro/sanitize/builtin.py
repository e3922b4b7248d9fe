"""Built-in sanitizer scenarios: every shipped kernel and app, plus
deliberate violations the sanitizer must catch.

Two registries drive ``python -m repro.sanitize``:

* :data:`CONFORMANCE` — each entry runs a built-in kernel (or app) under
  the sanitizer and must come back clean; a numerical cross-check against
  a plain-numpy reference guards against the harness itself drifting.
* :data:`DEMOS` — each entry is a seeded bug (an out-of-pattern stencil
  read, a scatter race, an out-of-range reduction bin, a read of
  unaggregated partials) and must raise exactly the declared
  :class:`~repro.sanitize.errors.SanitizerError` subclass. A demo that
  *doesn't* raise means the sanitizer lost a detection class.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.datum import Vector, from_array
from repro.core.grid import Grid
from repro.core.task import Kernel
from repro.kernels import (
    gol_containers,
    gol_reference_step,
    histogram_containers,
    histogram_grid,
    make_gol_kernel,
    make_histogram_kernel,
    make_nbody_kernel,
    make_relu_grad_kernel,
    make_relu_kernel,
    make_saxpy_kernel,
    make_scale_kernel,
    make_spmv_kernel,
    make_sqdiff_reduce_kernel,
    make_sum_reduce_kernel,
    map_containers,
    nbody_containers,
    nbody_reference,
    spmv_containers,
    spmv_grid,
    CsrDatums,
)
from repro.kernels.game_of_life import gol_loop, make_gol_oob_kernel
from repro.patterns import (
    CLAMP,
    NO_CHECKS,
    WRAP,
    Permutation,
    ReductiveDynamic,
    StructuredInjective,
    UnstructuredInjective,
    Window1D,
)
from repro.sanitize.errors import (
    OutOfPatternReadError,
    OutOfRegionWriteError,
    UnaggregatedReadError,
    WriteRaceError,
)
from repro.sanitize.harness import SanitizeSession, sanitize_task


class ScenarioFailure(AssertionError):
    """A conformance scenario produced wrong numbers or spurious errors."""


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise ScenarioFailure(what)


def _board(n: int = 32, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, n)) < 0.35).astype(np.int32)


# -- conformance scenarios ---------------------------------------------------
def gol_wrap(segments: int) -> None:
    board = _board()
    a = from_array(board, "gol.a")
    b = from_array(np.zeros_like(board), "gol.b")
    session = SanitizeSession(segments=segments)
    k = make_gol_kernel("maps_ilp")
    ref = board
    cur, nxt = a, b
    for _ in range(2):
        session.run(k, *gol_containers(cur, nxt, boundary=WRAP))
        ref = gol_reference_step(ref, wrap=True)
        cur, nxt = nxt, cur
    _check((session.array(cur) == ref).all(), "gol-wrap result mismatch")


def gol_clamp(segments: int) -> None:
    board = _board(seed=1)
    a = from_array(board, "golc.a")
    b = from_array(np.zeros_like(board), "golc.b")
    session = SanitizeSession(segments=segments)
    k = make_gol_kernel("naive")
    session.run(k, *gol_containers(a, b, variant="naive", boundary=CLAMP))
    # CLAMP duplicates the edge rows/cols; only the interior matches the
    # zero-padded reference — conformance, not physics, is under test.
    ref = gol_reference_step(board, wrap=False)
    _check(
        (session.array(b)[1:-1, 1:-1] == ref[1:-1, 1:-1]).all(),
        "gol-clamp interior mismatch",
    )


def histogram(segments: int) -> None:
    rng = np.random.default_rng(2)
    image = from_array(
        rng.integers(0, 256, (32, 32), dtype=np.int64), "hist.img"
    )
    hist = Vector(256, np.int64, "hist.out").bind(np.zeros(256, np.int64))
    session = SanitizeSession(segments=segments)
    session.run(
        make_histogram_kernel("maps"),
        *histogram_containers(image, hist),
        grid=histogram_grid(image),
    )
    out = session.aggregate(hist)
    ref = np.bincount(image.host.reshape(-1), minlength=256)
    _check((out == ref).all(), "histogram counts mismatch")


def saxpy(segments: int) -> None:
    n = 64
    rng = np.random.default_rng(3)
    x = from_array(rng.random(n, dtype=np.float32), "saxpy.x")
    y = from_array(rng.random(n, dtype=np.float32), "saxpy.y")
    y0 = y.host.copy()
    session = SanitizeSession(segments=segments)
    session.run(
        make_saxpy_kernel(),
        Window1D(x, 0, NO_CHECKS),
        Window1D(y, 0, NO_CHECKS),
        StructuredInjective(y),
        constants={"alpha": 2.0},
    )
    _check(
        np.allclose(session.array(y), 2.0 * x.host + y0),
        "saxpy result mismatch",
    )


def elementwise(segments: int) -> None:
    n = 48
    rng = np.random.default_rng(4)
    x = from_array(rng.standard_normal(n).astype(np.float32), "ew.x")
    session = SanitizeSession(segments=segments)

    scaled = Vector(n, np.float32, "ew.scaled")
    session.run(
        make_scale_kernel(), *map_containers([x], scaled),
        constants={"alpha": 3.0},
    )
    _check(
        np.allclose(session.array(scaled), 3.0 * x.host),
        "scale mismatch",
    )

    r = Vector(n, np.float32, "ew.relu")
    session.run(make_relu_kernel(), *map_containers([x], r))
    _check(
        (session.array(r) == np.maximum(x.host, 0)).all(), "relu mismatch"
    )

    dy = from_array(rng.standard_normal(n).astype(np.float32), "ew.dy")
    dx = Vector(n, np.float32, "ew.dx")
    session.run(make_relu_grad_kernel(), *map_containers([x, dy], dx))
    _check(
        (session.array(dx) == dy.host * (x.host > 0)).all(),
        "relu-grad mismatch",
    )


def reductions(segments: int) -> None:
    n = 64
    rng = np.random.default_rng(5)
    x = from_array(rng.random(n, dtype=np.float32), "red.x")
    b = from_array(rng.random(n, dtype=np.float32), "red.b")
    session = SanitizeSession(segments=segments)

    from repro.patterns import ReductiveStatic

    total = Vector(1, np.float64, "red.sum").bind(np.zeros(1, np.float64))
    session.run(
        make_sum_reduce_kernel(),
        Window1D(x, 0, NO_CHECKS), ReductiveStatic(total),
        grid=Grid((n,)),
    )
    _check(
        np.allclose(session.aggregate(total)[0], x.host.sum(dtype=np.float64)),
        "sum-reduce mismatch",
    )

    sq = Vector(1, np.float64, "red.sq").bind(np.zeros(1, np.float64))
    session.run(
        make_sqdiff_reduce_kernel(),
        Window1D(x, 0, NO_CHECKS), Window1D(b, 0, NO_CHECKS),
        ReductiveStatic(sq),
        grid=Grid((n,)),
    )
    d = x.host.astype(np.float64) - b.host
    _check(
        np.allclose(session.aggregate(sq)[0], (d * d).sum()),
        "sqdiff-reduce mismatch",
    )


def spmv(segments: int) -> None:
    import scipy.sparse as sp

    rng = np.random.default_rng(6)
    dense = rng.random((32, 32)) * (rng.random((32, 32)) < 0.3)
    csr = CsrDatums(sp.csr_matrix(dense.astype(np.float32)), "spmv.A")
    x = from_array(rng.random(32, dtype=np.float32), "spmv.x")
    y = Vector(32, np.float32, "spmv.y").bind(np.zeros(32, np.float32))
    session = SanitizeSession(segments=segments)
    session.run(
        make_spmv_kernel(), *spmv_containers(csr, x, y),
        grid=spmv_grid(csr),
    )
    ref = dense.astype(np.float32) @ x.host
    _check(np.allclose(session.array(y), ref, atol=1e-4), "spmv mismatch")


def nbody(segments: int) -> None:
    n = 32
    rng = np.random.default_rng(7)
    comps = [
        from_array(rng.random(n, dtype=np.float32), f"nb.{c}")
        for c in ("x", "y", "z", "m")
    ]
    outs = [Vector(n, np.float32, f"nb.a{c}") for c in ("x", "y", "z")]
    for o in outs:
        o.bind(np.zeros(n, np.float32))
    session = SanitizeSession(segments=segments)
    session.run(
        make_nbody_kernel(), *nbody_containers(*comps, *outs),
        grid=Grid((n,)),
    )
    ref = nbody_reference(*[c.host for c in comps])
    for o, r in zip(outs, ref):
        _check(np.allclose(session.array(o), r, atol=1e-3), "nbody mismatch")


def permutation_scatter(segments: int) -> None:
    """Unstructured Injective: disjoint per-segment scatter (reversal)."""
    n = 64
    src = from_array(np.arange(n, dtype=np.float32), "perm.src")
    dst = Vector(n, np.float32, "perm.dst").bind(np.zeros(n, np.float32))

    def body(ctx) -> None:
        inp, out = ctx.views
        lo, hi = ctx.work_rect[0].begin, ctx.work_rect[0].end
        idx = np.arange(lo, hi)
        out.scatter(n - 1 - idx, inp.array[idx])

    session = SanitizeSession(segments=segments)
    session.run(
        Kernel("permute-reverse", func=body),
        Permutation(src), UnstructuredInjective(dst),
        grid=Grid((n,)),
    )
    _check(
        (session.aggregate(dst) == src.host[::-1]).all(),
        "permutation mismatch",
    )


def dynamic_filter(segments: int) -> None:
    """Reductive (Dynamic): predicate filtering with per-segment appends."""
    n = 64
    rng = np.random.default_rng(8)
    x = from_array(rng.standard_normal(n).astype(np.float32), "filt.x")
    out = Vector(n, np.float32, "filt.out").bind(np.zeros(n, np.float32))

    def body(ctx) -> None:
        xin, dyn = ctx.views
        vals = xin.center()
        dyn.append(vals[vals > 0])

    session = SanitizeSession(segments=segments)
    session.run(
        Kernel("filter-positive", func=body),
        Window1D(x, 0, NO_CHECKS), ReductiveDynamic(out),
        grid=Grid((n,)),
    )
    session.aggregate(out)
    total = getattr(out, "dynamic_total", None)
    _check(total == int((x.host > 0).sum()), "filter count mismatch")


def scheduler_gol(segments: int) -> None:
    """The same conformance checks inside a full simulated 2-GPU run."""
    from repro.core.scheduler import Scheduler
    from repro.hardware import GTX_780
    from repro.sim import SimNode

    board = _board(seed=9)
    ref = gol_reference_step(gol_reference_step(board))
    sched = Scheduler(SimNode(GTX_780, 2, functional=True), sanitize=True)
    a = from_array(board, "sgol.a")
    b = from_array(np.zeros_like(board), "sgol.b")
    gol_loop(sched, a, b).submit()
    sched.gather(a)
    _check((a.host == ref).all(), "scheduler gol mismatch")


def nmf_app(segments: int) -> None:
    from repro.apps.nmf import MapsNMF
    from repro.core.scheduler import Scheduler
    from repro.hardware import GTX_780
    from repro.sim import SimNode

    rng = np.random.default_rng(10)
    v = rng.random((32, 16), dtype=np.float32)
    sched = Scheduler(SimNode(GTX_780, 2, functional=True), sanitize=True)
    nmf = MapsNMF(sched, v, k=4, seed=3)
    e0 = nmf.error()
    nmf.run_iteration()
    nmf.sched.wait_all()
    _check(nmf.error() <= e0 * 1.01, "nmf error did not decrease")


def lenet_app(segments: int) -> None:
    from repro.apps.lenet import (
        LeNetParams,
        MapsLeNetTrainer,
        synthetic_mnist,
    )
    from repro.core.scheduler import Scheduler
    from repro.hardware import GTX_780
    from repro.sim import SimNode

    sched = Scheduler(SimNode(GTX_780, 2, functional=True), sanitize=True)
    trainer = MapsLeNetTrainer(
        sched, LeNetParams.initialize(0), batch=16, mode="data"
    )
    x, y = synthetic_mnist(16, seed=0)
    trainer.train_batch(x, y)


#: (name, runner) — must complete without SanitizerError.
CONFORMANCE: list[tuple[str, Callable[[int], None]]] = [
    ("gol-wrap", gol_wrap),
    ("gol-clamp", gol_clamp),
    ("histogram", histogram),
    ("saxpy", saxpy),
    ("elementwise", elementwise),
    ("reductions", reductions),
    ("spmv", spmv),
    ("nbody", nbody),
    ("permutation-scatter", permutation_scatter),
    ("dynamic-filter", dynamic_filter),
    ("scheduler-gol", scheduler_gol),
    ("nmf-app", nmf_app),
    ("lenet-app", lenet_app),
]


# -- violation demos ---------------------------------------------------------
def demo_gol_oob(segments: int) -> None:
    board = _board(seed=11)
    a = from_array(board, "oob.a")
    b = from_array(np.zeros_like(board), "oob.b")
    sanitize_task(
        make_gol_oob_kernel(),
        *gol_containers(a, b, variant="naive", boundary=WRAP),
        segments=segments,
    )


def demo_scatter_race(segments: int) -> None:
    n = 16
    src = from_array(np.arange(n, dtype=np.float32), "race.src")
    dst = Vector(n, np.float32, "race.dst").bind(np.zeros(n, np.float32))

    def body(ctx) -> None:
        inp, out = ctx.views
        # BUG: every segment claims flat index 0 — not injective.
        out.scatter(np.array([0]), inp.array[:1])

    sanitize_task(
        Kernel("scatter-collide", func=body),
        Permutation(src), UnstructuredInjective(dst),
        grid=Grid((n,)),
        segments=max(segments, 2),
    )


def demo_oob_bin(segments: int) -> None:
    rng = np.random.default_rng(12)
    image = from_array(
        rng.integers(0, 256, (16, 16), dtype=np.int64), "oobbin.img"
    )
    hist = Vector(256, np.int64, "oobbin.out").bind(np.zeros(256, np.int64))

    def body(ctx) -> None:
        img, h = ctx.views
        # BUG: bins shifted past the declared 256-bin extent.
        h.add_at(img.center() + 200)
        h.commit()

    sanitize_task(
        Kernel("histogram-shifted", func=body),
        *histogram_containers(image, hist),
        grid=histogram_grid(image),
        segments=segments,
    )


def demo_unaggregated_read(segments: int) -> None:
    rng = np.random.default_rng(13)
    image = from_array(
        rng.integers(0, 256, (16, 16), dtype=np.int64), "unagg.img"
    )
    hist = Vector(256, np.int64, "unagg.h").bind(np.zeros(256, np.int64))
    out = Vector(256, np.int64, "unagg.o").bind(np.zeros(256, np.int64))
    session = SanitizeSession(segments=segments)
    session.run(
        make_histogram_kernel("maps"),
        *histogram_containers(image, hist),
        grid=histogram_grid(image),
    )
    # BUG: consume the histogram without aggregating the partials.
    session.run(
        make_scale_kernel(),
        Window1D(hist, 0, NO_CHECKS), StructuredInjective(out),
        constants={"alpha": 1},
    )


def demo_scheduler_oob(segments: int) -> None:
    from repro.core.scheduler import Scheduler
    from repro.hardware import GTX_780
    from repro.sim import SimNode

    board = _board(seed=14)
    node = SimNode(GTX_780, 2, functional=True)
    sched = Scheduler(node, sanitize=True)
    a = from_array(board, "soob.a")
    b = from_array(np.zeros_like(board), "soob.b")
    k = make_gol_oob_kernel()
    sched.analyze_call(k, *gol_containers(a, b, variant="naive"))
    sched.invoke(k, *gol_containers(a, b, variant="naive"))
    sched.wait_all()


#: (name, expected SanitizerError subclass, runner).
DEMOS: list[tuple[str, type, Callable[[int], None]]] = [
    ("gol-out-of-pattern", OutOfPatternReadError, demo_gol_oob),
    ("scatter-race", WriteRaceError, demo_scatter_race),
    ("out-of-range-bin", OutOfRegionWriteError, demo_oob_bin),
    ("unaggregated-read", UnaggregatedReadError, demo_unaggregated_read),
    ("scheduler-out-of-pattern", OutOfPatternReadError, demo_scheduler_oob),
]
