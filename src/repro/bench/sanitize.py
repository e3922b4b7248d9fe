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
from repro.bench.workloads import Loop, run
from repro.core import Scheduler, Vector
from repro.core.datum import from_array
from repro.hardware.specs import GPUSpec, GTX_780
from repro.kernels.game_of_life import gol_loop
from repro.kernels.histogram import histogram_loop
from repro.sim.node import SimNode

#: Functional-mode scale: large enough that kernel bodies dominate noise,
#: small enough that the recorded (sanitized) run stays interactive.
BOARD = 256
ITERS = 10
REPEATS = 3
NUM_GPUS = 2


def _gol(sched: Scheduler, size: int) -> Loop:
    rng = np.random.default_rng(0)
    board = (rng.random((size, size)) < 0.35).astype(np.int32)
    a = from_array(board, "san_a")
    return gol_loop(sched, a, from_array(np.zeros_like(board), "san_b"))


def _histogram(sched: Scheduler, size: int) -> Loop:
    rng = np.random.default_rng(1)
    image = from_array(
        rng.integers(0, 256, (size, size), dtype=np.int64), "san_img"
    )
    hist = Vector(256, np.int64, "san_hist").bind(np.zeros(256, np.int64))
    return histogram_loop(sched, image, hist)


#: Functional datums: workload name -> ``build(sched, size)``.
WORKLOADS = {
    "game_of_life": _gol,
    "histogram": _histogram,
}


def _run(
    name: str, sanitize: bool, spec: GPUSpec, size: int, iters: int
) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=True)
    sched = Scheduler(node, sanitize=sanitize)
    loop = WORKLOADS[name](sched, size)
    t0 = time.perf_counter()
    run(loop, iters)
    sched.wait_all()
    t1 = time.perf_counter()
    out = loop.out(iters - 1)
    sched.gather(out)
    return {"wall_s": t1 - t0, "checksum": int(out.host.sum())}


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
    for name in WORKLOADS:
        plain = best_of(
            lambda: _run(name, False, spec, size, iters), repeats, _wall
        )
        sanitized = best_of(
            lambda: _run(name, True, spec, size, iters), repeats, _wall
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
