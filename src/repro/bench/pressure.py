"""Memory-pressure benchmark: the slowdown-vs-oversubscription curve
(DESIGN.md §10).

``python -m repro.bench --pressure`` runs Game of Life (4 GPUs) and chained
SGEMM (2 GPUs) timing-only, first with ample memory to probe the in-core
working set (max per-device peak), then with per-device capacity clamped to
1.0x / 0.6x / 0.3x / 0.1x of that working set. Each pressured run reports
the simulated time, its slowdown over the ample run, and how the
degradation ladder absorbed the deficit (evictions, chunk kernels). Runs
whose irreducible chunk footprint exceeds capacity — SGEMM's chunk-invariant
B below ~0.5x — are recorded as typed ``CapacityError`` rows rather than
failures: refusing with a named datum *is* the specified behavior there.

One pressured configuration is run twice and asserted identical (simulated
time and executed command count): degradation must be deterministic.
Results are written to ``BENCH_pressure.json``.
"""

from __future__ import annotations

from typing import Optional

import dataclasses

from repro.bench.reporting import fmt_table
from repro.bench.workloads import TIMING, run
from repro.core import Scheduler
from repro.errors import CapacityError
from repro.hardware.specs import GPUSpec, GTX_780
from repro.sim.node import SimNode

FACTORS = (1.0, 0.6, 0.3, 0.1)
GOL_SIZE = 2048
GOL_ITERS = 4
GOL_GPUS = 4
SGEMM_SIZE = 1024
SGEMM_ITERS = 4
SGEMM_GPUS = 2


#: Workload name -> (size, iterations, GPU count).
WORKLOADS = {
    "game_of_life": (GOL_SIZE, GOL_ITERS, GOL_GPUS),
    "sgemm_chain": (SGEMM_SIZE, SGEMM_ITERS, SGEMM_GPUS),
}


def _run(name: str, spec: GPUSpec) -> dict:
    size, iters, gpus = WORKLOADS[name]
    node = SimNode(spec, gpus, functional=False)
    sched = Scheduler(node)
    run(TIMING[name](sched, size), iters, sync="gather")
    return {
        "sim_time": sched.wait_all(),
        "commands": node.engine.commands_executed,
        "working_set": max(
            r["peak"] for r in node.memory_report().values()
        ),
        "evictions": len(node.trace.matching("evict:")),
        "chunk_kernels": len(
            [r for r in node.trace.kernels() if "#chunk" in r.label]
        ),
        "salvage_copies": len(node.trace.matching("salvage:")),
    }


def _capped(spec: GPUSpec, capacity: int) -> GPUSpec:
    return dataclasses.replace(spec, global_memory_bytes=int(capacity))


def measure_pressure(spec: GPUSpec = GTX_780) -> dict:
    """Run each workload across the capacity ladder; return the result
    tree. Raises :class:`AssertionError` if a pressured run replays
    non-deterministically."""
    results: dict = {
        "spec": spec.name,
        "factors": list(FACTORS),
        "workloads": {},
    }
    for name in WORKLOADS:
        ample = _run(name, spec)
        ws = ample["working_set"]
        entry: dict = {"working_set": ws, "ample": ample, "runs": {}}
        deterministic_probe: Optional[str] = None
        for factor in FACTORS:
            capped_spec = _capped(spec, max(1, int(ws * factor)))
            try:
                r = _run(name, capped_spec)
            except CapacityError as e:
                entry["runs"][str(factor)] = {
                    "capacity_error": True,
                    "datum": e.datum,
                    "required": e.required,
                    "capacity": e.capacity,
                }
                continue
            r["slowdown"] = r["sim_time"] / ample["sim_time"]
            entry["runs"][str(factor)] = r
            if factor < 1.0 and deterministic_probe is None:
                deterministic_probe = str(factor)
                replay = _run(name, capped_spec)
                assert replay["sim_time"] == r["sim_time"], (
                    f"{name} @ {factor}x: degradation is nondeterministic "
                    f"({replay['sim_time']} != {r['sim_time']})"
                )
                assert replay["commands"] == r["commands"], (
                    f"{name} @ {factor}x: command stream is nondeterministic"
                )
        results["workloads"][name] = entry
    return results


def pressure_report(results: dict) -> str:
    """The result tree as an aligned plain-text table."""
    rows = []
    for name, entry in results["workloads"].items():
        first = True
        for factor in results["factors"]:
            r = entry["runs"][str(factor)]
            label = name if first else ""
            first = False
            if r.get("capacity_error"):
                rows.append([
                    label, f"{factor:.1f}x", "-",
                    f"CapacityError({r['datum']})",
                    "-", "-",
                ])
                continue
            rows.append([
                label,
                f"{factor:.1f}x",
                f"{r['sim_time'] * 1e3:.2f} ms",
                f"{r['slowdown']:.2f}x",
                str(r["evictions"]),
                str(r["chunk_kernels"]),
            ])
    title = (
        f"Memory pressure: capacity clamped to a fraction of the in-core "
        f"working set ({results['spec']})"
    )
    return fmt_table(
        title,
        ["workload", "capacity", "sim time", "slowdown", "evicts", "chunks"],
        rows,
    )
