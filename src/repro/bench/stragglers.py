"""Straggler-mitigation benchmark: makespan recovery under slow devices
(DESIGN.md §11).

``python -m repro.bench --stragglers`` runs Game of Life and chained
SGEMM (4 GPUs, timing-only, per-iteration synchronisation) with device 1
computing 1.5x / 2x / 4x slower, plus a transient scenario where the
4x slowdown heals a quarter of the way into the run. Every scenario is
measured unmitigated and with ``FaultPlan.mitigate_stragglers`` on; the
report shows both overheads over the fault-free baseline and the
speculation/hedge counters. Persistent scenarios always improve; the
transient one may trail the unmitigated run slightly — the feedback loop
pays for re-segmenting in and back out when the slowdown heals right
after it rebalanced.

Built-in acceptance checks (raise ``AssertionError`` on regression):

* at the 4x factor the mitigated run finishes within 1.5x of the
  fault-free baseline (vs ~4x unmitigated) for both workloads;
* mitigation is bit-identical — a small functional Game of Life run per
  scenario must equal the fault-free reference exactly;
* the mitigated timeline is deterministic — the 4x scenario is run twice
  and asserted identical in simulated time and executed command count.

Results are written to ``BENCH_stragglers.json``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.reporting import fmt_table
from repro.bench.workloads import TIMING, Loop, run
from repro.core import Matrix, Scheduler
from repro.hardware.specs import GPUSpec, GTX_780
from repro.kernels.game_of_life import gol_loop, gol_reference_step
from repro.sim.faults import FaultPlan, Straggler
from repro.sim.node import SimNode

GOL_SIZE = 8192
GOL_ITERS = 20
SGEMM_SIZE = 2048
SGEMM_ITERS = 10
NUM_GPUS = 4
SLOW_DEVICE = 1
FACTORS = (1.5, 2.0, 4.0)
#: The acceptance bound: a 4x-slow device must cost at most this much
#: over the fault-free baseline once mitigation is on.
TARGET = 1.5
WORKLOADS = ("game_of_life", "sgemm_chain")


def _synced(loop: Loop, iters: int) -> float:
    """Wait on every iteration (the feedback loop's cadence), then bring
    the last output home; returns the simulated time."""
    run(loop, iters, sync="wait")
    loop.sched.gather_async(loop.out(iters - 1))
    return loop.sched.wait_all()


def _run(name: str, spec: GPUSpec, size: int, iters: int, faults) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False, faults=faults)
    sched = Scheduler(node)
    return {
        "sim_time": _synced(TIMING[name](sched, size), iters),
        "commands": node.engine.commands_executed,
        "speculations_fired": faults.speculations_fired if faults else 0,
        "hedges_fired": faults.hedges_fired if faults else 0,
    }


def _scenarios(
    baseline_time: float,
) -> dict[str, Callable[[bool], FaultPlan]]:
    """Fault-plan factories keyed by scenario name; fresh plans per run
    (plans hold the mitigation counters)."""
    scenarios: dict[str, Callable[[bool], FaultPlan]] = {}
    for factor in FACTORS:
        scenarios[f"compute_{factor:g}x"] = (
            lambda mitigate, f=factor: FaultPlan(
                stragglers=[
                    Straggler(device=SLOW_DEVICE, compute_factor=f)
                ],
                mitigate_stragglers=mitigate,
            )
        )
    # 4x slow only for the first quarter of the run, then healed: the
    # feedback loop must rebalance in and back out.
    scenarios["transient_4x"] = lambda mitigate: FaultPlan(
        stragglers=[
            Straggler(
                device=SLOW_DEVICE,
                compute_factor=4.0,
                start=0.0,
                end=baseline_time * 0.25,
            )
        ],
        mitigate_stragglers=mitigate,
    )
    return scenarios


def _assert_bit_identical(make_plan: Callable[[bool], FaultPlan]) -> None:
    """Small functional Game of Life run: the mitigated result must equal
    the fault-free reference bit for bit."""
    n, iters, seed = 256, 6, 7

    def board():
        return np.random.default_rng(seed).integers(
            0, 2, (n, n), dtype=np.uint8
        )

    node = SimNode(GTX_780, NUM_GPUS, functional=True, faults=make_plan(True))
    a = Matrix(n, n, np.uint8, "A").bind(board())
    b = Matrix(n, n, np.uint8, "B").bind(np.zeros((n, n), np.uint8))
    loop = gol_loop(Scheduler(node), a, b)
    _synced(loop, iters)
    expected = board()
    for _ in range(iters):
        expected = gol_reference_step(expected)
    assert np.array_equal(loop.out(iters - 1).host, expected), (
        "straggler mitigation changed the computed result"
    )


def measure_stragglers(
    spec: GPUSpec = GTX_780,
    gol_size: int = GOL_SIZE,
    gol_iters: int = GOL_ITERS,
    sgemm_size: int = SGEMM_SIZE,
    sgemm_iters: int = SGEMM_ITERS,
) -> dict:
    """Run every workload under every straggler scenario, unmitigated and
    mitigated; return the result tree. Raises :class:`AssertionError` if
    the 4x acceptance bound, bit-identity, or determinism fails."""
    sizes = {
        "game_of_life": (gol_size, gol_iters),
        "sgemm_chain": (sgemm_size, sgemm_iters),
    }
    results: dict = {
        "spec": spec.name,
        "num_gpus": NUM_GPUS,
        "slow_device": SLOW_DEVICE,
        "target": TARGET,
        "sizes": {k: {"size": v[0], "iters": v[1]} for k, v in sizes.items()},
        "workloads": {},
    }
    for name in WORKLOADS:
        size, iters = sizes[name]
        baseline = _run(name, spec, size, iters, None)
        base_t = baseline["sim_time"]
        entry: dict = {"baseline": baseline}
        for scen, make_plan in _scenarios(base_t).items():
            off = _run(name, spec, size, iters, make_plan(False))
            on = _run(name, spec, size, iters, make_plan(True))
            off["overhead"] = off["sim_time"] / base_t
            on["overhead"] = on["sim_time"] / base_t
            entry[scen] = {"unmitigated": off, "mitigated": on}
        worst = entry["compute_4x"]
        assert worst["mitigated"]["overhead"] <= TARGET, (
            f"{name}: 4x straggler mitigated to "
            f"{worst['mitigated']['overhead']:.2f}x, target {TARGET}x"
        )
        replay = _run(
            name, spec, size, iters, _scenarios(base_t)["compute_4x"](True)
        )
        assert replay["sim_time"] == worst["mitigated"]["sim_time"], (
            f"{name}: mitigated timeline is nondeterministic "
            f"({replay['sim_time']} != {worst['mitigated']['sim_time']})"
        )
        assert replay["commands"] == worst["mitigated"]["commands"], (
            f"{name}: mitigated command stream is nondeterministic"
        )
        results["workloads"][name] = entry
    for scen, make_plan in _scenarios(1.0).items():
        _assert_bit_identical(make_plan)
    results["bit_identical"] = True
    return results


def stragglers_report(results: dict) -> str:
    """The result tree as an aligned plain-text table."""
    rows = []
    for name, entry in results["workloads"].items():
        base = entry["baseline"]["sim_time"]
        rows.append(
            [name, "baseline", f"{base * 1e3:.2f} ms", "1.00x", "", "", ""]
        )
        for scen, r in entry.items():
            if scen == "baseline":
                continue
            off, on = r["unmitigated"], r["mitigated"]
            rows.append([
                "", scen,
                f"{off['sim_time'] * 1e3:.2f} ms",
                f"{off['overhead']:.2f}x",
                f"{on['overhead']:.2f}x",
                str(on["speculations_fired"]),
                str(on["hedges_fired"]),
            ])
    title = (
        f"Straggler mitigation: device {results['slow_device']} degraded, "
        f"{results['num_gpus']}x {results['spec']} "
        f"(target <= {results['target']}x at 4x)"
    )
    return fmt_table(
        title,
        ["workload", "scenario", "unmitigated", "off", "on", "spec", "hedge"],
        rows,
    )
