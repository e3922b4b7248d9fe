"""Sanitizer overhead benchmark: functional runs with recording on vs off.

The sanitizer is a development-time tool: it attaches an access recorder
to every device view and judges each segment after its kernel body runs
(DESIGN.md §9). That work happens on the host path of functional-mode
runs, so the relevant cost metric is the wall-clock slowdown of a
functional iteration loop with ``Scheduler(sanitize=True)`` relative to
the plain functional run — the number a developer pays while sanitizing a
workload, not anything that exists in timing mode.

The benchmark runs Game of Life (the stencil exercises the densest
recording path: window reads plus injective writes per segment) and the
MAPS histogram (the reductive path) and asserts the sanitized run stays
numerically identical to the unsanitized one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import best_of, fmt_table
from repro.core import Scheduler, Vector
from repro.core.datum import from_array
from repro.hardware.specs import GPUSpec, GTX_780
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.kernels.histogram import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
)
from repro.sim.node import SimNode

#: Functional-mode scale: large enough that kernel bodies dominate noise,
#: small enough that the recorded (sanitized) run stays interactive.
BOARD = 256
ITERS = 10
REPEATS = 3
NUM_GPUS = 2


def _run_gol(sanitize: bool, spec: GPUSpec, size: int, iters: int) -> dict:
    rng = np.random.default_rng(0)
    board = (rng.random((size, size)) < 0.35).astype(np.int32)
    node = SimNode(spec, NUM_GPUS, functional=True)
    sched = Scheduler(node, sanitize=sanitize)
    kernel = make_gol_kernel()
    a = from_array(board, "san_a")
    b = from_array(np.zeros_like(board), "san_b")
    sched.analyze_call(kernel, *gol_containers(a, b))
    sched.analyze_call(kernel, *gol_containers(b, a))
    cur, nxt = a, b
    t0 = time.perf_counter()
    for _ in range(iters):
        sched.invoke(kernel, *gol_containers(cur, nxt))
        cur, nxt = nxt, cur
    sched.wait_all()
    t1 = time.perf_counter()
    sched.gather(cur)
    return {"wall_s": t1 - t0, "checksum": int(cur.host.sum())}


def _run_histogram(
    sanitize: bool, spec: GPUSpec, size: int, iters: int
) -> dict:
    rng = np.random.default_rng(1)
    image = from_array(
        rng.integers(0, 256, (size, size), dtype=np.int64), "san_img"
    )
    node = SimNode(spec, NUM_GPUS, functional=True)
    sched = Scheduler(node, sanitize=sanitize)
    kernel = make_histogram_kernel("maps")
    hist = Vector(256, np.int64, "san_hist").bind(np.zeros(256, np.int64))
    containers = histogram_containers(image, hist)
    grid = histogram_grid(image)
    sched.analyze_call(kernel, *containers, grid=grid)
    t0 = time.perf_counter()
    for _ in range(iters):
        sched.invoke(kernel, *containers, grid=grid)
    sched.wait_all()
    t1 = time.perf_counter()
    sched.gather(hist)
    return {"wall_s": t1 - t0, "checksum": int(hist.host.sum())}


WORKLOADS = {
    "game_of_life": _run_gol,
    "histogram": _run_histogram,
}


def _wall(r: dict) -> float:
    return r["wall_s"]


def measure_sanitize(
    spec: GPUSpec = GTX_780,
    size: int = BOARD,
    iters: int = ITERS,
    repeats: int = REPEATS,
) -> dict:
    """Run every workload sanitized and plain; return the result tree.

    Raises :class:`AssertionError` if sanitizing changes the functional
    result — recording must be observation-only.
    """
    results: dict = {
        "spec": spec.name,
        "num_gpus": NUM_GPUS,
        "size": size,
        "iters": iters,
        "repeats": repeats,
        "workloads": {},
    }
    for name, fn in WORKLOADS.items():
        plain = best_of(lambda: fn(False, spec, size, iters), repeats, _wall)
        sanitized = best_of(
            lambda: fn(True, spec, size, iters), repeats, _wall
        )
        assert sanitized["checksum"] == plain["checksum"], (
            f"{name}: sanitize mode changed the functional result "
            f"({sanitized['checksum']} != {plain['checksum']})"
        )
        results["workloads"][name] = {
            "plain": plain,
            "sanitized": sanitized,
            "slowdown": sanitized["wall_s"] / plain["wall_s"],
        }
    return results


def sanitize_report(results: dict) -> str:
    """The result tree as an aligned plain-text table."""
    rows = []
    for name, r in results["workloads"].items():
        rows.append(
            [
                name,
                f"{r['plain']['wall_s'] * 1e3:.1f} ms",
                f"{r['sanitized']['wall_s'] * 1e3:.1f} ms",
                f"{r['slowdown']:.2f}x",
            ]
        )
    title = (
        f"Sanitizer overhead: {results['iters']} functional iterations, "
        f"{results['size']}^2, {results['num_gpus']} GPUs ({results['spec']})"
    )
    return fmt_table(title, ["workload", "plain", "sanitized", "slowdown"], rows)
