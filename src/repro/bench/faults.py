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

from repro.bench.reporting import fmt_table
from repro.bench.workloads import TIMING, run
from repro.core import Scheduler
from repro.hardware.specs import GPUSpec, GTX_780
from repro.sim.faults import DeviceFailure, FaultPlan, Straggler
from repro.sim.node import SimNode

PAPER_SIZE = 8192
ITERS = 10
NUM_GPUS = 4


def _run(
    name: str, spec: GPUSpec, size: int, iters: int, faults: FaultPlan | None
) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False, faults=faults)
    sched = Scheduler(node)
    run(TIMING[name](sched, size), iters, sync="gather")
    return {
        "sim_time": sched.wait_all(),
        "commands": node.engine.commands_executed,
        "alive_devices": list(sched.alive_devices),
        "transfer_faults_fired": (
            faults.transfer_faults_fired if faults else 0
        ),
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
    for name in TIMING:
        baseline = _run(name, spec, size, iters, None)
        entry = {"baseline": baseline}
        for scen, make_plan in _scenarios(baseline["sim_time"]).items():
            r = _run(name, spec, size, iters, make_plan())
            r["overhead"] = r["sim_time"] / baseline["sim_time"]
            entry[scen] = r
        replay = _run(name, spec, size, iters, _scenarios(
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
