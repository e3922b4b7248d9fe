"""Fault-tolerance benchmark: recovery overhead at paper scale (§8).

``python -m repro.bench --faults`` runs the three flagship workloads
(Game of Life, histogram, chained SGEMM — 8K, 4 GPUs, timing-only) in a
checkpointed loop (one host gather per iteration, the pattern that makes
permanent-failure recovery possible) under four fault scenarios:

* ``baseline`` — no faults;
* ``permanent`` — device 2 fails for good at 40% of the baseline runtime;
* ``transient`` — every transfer faults with probability 5% (seeded);
* ``straggler`` — device 0 computes 2x slower and transfers 1.5x slower.

For each scenario the simulated completion time, its overhead ratio over
the baseline, and the fault/recovery counters are reported and written to
``BENCH_faults.json``. The permanent-failure scenario is run twice and
asserted identical (simulated time and executed command count) — fault
handling must be deterministic under a fixed plan.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.reporting import fmt_table
from repro.core import Grid, Matrix, Scheduler, Vector
from repro.hardware.specs import GPUSpec, GTX_780
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.kernels.histogram import histogram_containers, make_histogram_kernel
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim.faults import DeviceFailure, FaultPlan, Straggler
from repro.sim.node import SimNode

PAPER_SIZE = 8192
ITERS = 10
NUM_GPUS = 4


def _run_gol(spec: GPUSpec, size: int, iters: int, faults) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False, faults=faults)
    sched = Scheduler(node)
    kernel = make_gol_kernel()
    a = Matrix(size, size, np.uint8, "gol_a")
    b = Matrix(size, size, np.uint8, "gol_b")
    sched.analyze_call(kernel, *gol_containers(a, b))
    sched.analyze_call(kernel, *gol_containers(b, a))
    cur, nxt = a, b
    for _ in range(iters):
        sched.invoke(kernel, *gol_containers(cur, nxt))
        sched.gather(nxt)  # per-iteration checkpoint
        cur, nxt = nxt, cur
    return _result(node, sched, faults)


def _run_histogram(spec: GPUSpec, size: int, iters: int, faults) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False, faults=faults)
    sched = Scheduler(node)
    kernel = make_histogram_kernel("maps")
    image = Matrix(size, size, np.uint8, "image")
    hist = Vector(256, np.int32, "hist")
    containers = histogram_containers(image, hist)
    grid = Grid((size, size))
    sched.analyze_call(kernel, *containers, grid=grid)
    for _ in range(iters):
        sched.invoke(kernel, *containers, grid=grid)
        sched.gather(hist)
    return _result(node, sched, faults)


def _run_sgemm(spec: GPUSpec, size: int, iters: int, faults) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False, faults=faults)
    sched = Scheduler(node)
    gemm = make_sgemm_routine()
    bmat = Matrix(size, size, np.float32, "B")
    x = Matrix(size, size, np.float32, "X")
    y = Matrix(size, size, np.float32, "Y")
    sched.analyze_call(gemm, *sgemm_containers(x, bmat, y))
    sched.analyze_call(gemm, *sgemm_containers(y, bmat, x))
    cur, nxt = x, y
    for _ in range(iters):
        sched.invoke_unmodified(gemm, *sgemm_containers(cur, bmat, nxt))
        sched.gather(nxt)
        cur, nxt = nxt, cur
    return _result(node, sched, faults)


def _result(node: SimNode, sched: Scheduler, faults) -> dict:
    t = sched.wait_all()
    return {
        "sim_time": t,
        "commands": node.engine.commands_executed,
        "alive_devices": list(sched.alive_devices),
        "transfer_faults_fired": (
            faults.transfer_faults_fired if faults else 0
        ),
    }


WORKLOADS: dict[str, Callable[[GPUSpec, int, int, FaultPlan | None], dict]] = {
    "game_of_life": _run_gol,
    "histogram": _run_histogram,
    "sgemm_chain": _run_sgemm,
}


def _scenarios(baseline_time: float) -> dict[str, Callable[[], FaultPlan]]:
    """Fault-plan factories; fresh plans per run (plans hold RNG state)."""
    return {
        "permanent": lambda: FaultPlan(
            device_failures=[DeviceFailure(2, baseline_time * 0.4)]
        ),
        "transient": lambda: FaultPlan(seed=3, transfer_fault_rate=0.05),
        "straggler": lambda: FaultPlan(
            stragglers=[
                Straggler(0, compute_factor=2.0, bandwidth_factor=1.5)
            ]
        ),
    }


def measure_faults(
    spec: GPUSpec = GTX_780,
    size: int = PAPER_SIZE,
    iters: int = ITERS,
) -> dict:
    """Run every workload under every fault scenario; return the result
    tree. Raises :class:`AssertionError` if the permanent-failure scenario
    replays non-deterministically."""
    results: dict = {
        "spec": spec.name,
        "num_gpus": NUM_GPUS,
        "size": size,
        "iters": iters,
        "workloads": {},
    }
    for name, fn in WORKLOADS.items():
        baseline = fn(spec, size, iters, None)
        entry = {"baseline": baseline}
        for scen, make_plan in _scenarios(baseline["sim_time"]).items():
            r = fn(spec, size, iters, make_plan())
            r["overhead"] = r["sim_time"] / baseline["sim_time"]
            entry[scen] = r
        replay = fn(spec, size, iters, _scenarios(
            baseline["sim_time"])["permanent"]())
        assert replay["sim_time"] == entry["permanent"]["sim_time"], (
            f"{name}: permanent-failure recovery is nondeterministic "
            f"({replay['sim_time']} != {entry['permanent']['sim_time']})"
        )
        assert replay["commands"] == entry["permanent"]["commands"], (
            f"{name}: recovery command stream is nondeterministic"
        )
        results["workloads"][name] = entry
    return results


def faults_report(results: dict) -> str:
    """The result tree as an aligned plain-text table."""
    rows = []
    for name, entry in results["workloads"].items():
        base = entry["baseline"]["sim_time"]
        rows.append([name, "baseline", f"{base * 1e3:.2f} ms", "1.00x",
                     "4", "0"])
        for scen in ("permanent", "transient", "straggler"):
            r = entry[scen]
            rows.append([
                "", scen,
                f"{r['sim_time'] * 1e3:.2f} ms",
                f"{r['overhead']:.2f}x",
                str(len(r["alive_devices"])),
                str(r["transfer_faults_fired"]),
            ])
    title = (
        f"Fault-tolerance overhead: {results['iters']} checkpointed "
        f"iterations, {results['size']}^2, {results['num_gpus']}x "
        f"{results['spec']}"
    )
    return fmt_table(
        title,
        ["workload", "scenario", "sim time", "overhead", "alive", "faults"],
        rows,
    )
