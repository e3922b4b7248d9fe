"""Serving-under-load benchmark: latency percentiles and goodput vs
offered load (``python -m repro.bench --serving``, DESIGN.md §14).

Method:

1. **Calibrate** — warm one replica and measure the full-batch service
   time of each model; node capacity is then
   ``num_gpus * max_batch / service_time`` requests/second (the
   throughput ceiling with one replica per device, each running full
   batches back-to-back).
2. **Load sweep** — replay seeded Poisson traces at 0.5x / 1x / 2x / 4x
   of that capacity and report p50/p95/p99 latency, goodput (within-SLO
   completions per second), SLO attainment, mean batch size, and the
   replica peak. A bursty (ON/OFF-modulated) trace at 1x shows the tail
   cost of burstiness at equal offered load.
3. **Determinism** — the 1x point runs twice; latencies and result
   hashes must be bit-identical.
4. **Composition** — the same 1x trace re-runs under memory pressure
   (device memory clamped) and with an injected straggler (device 1 at
   2x compute time). Latencies shift; the per-request result hash must
   not — batching, scaling, pressure, and stragglers change *when*, not
   *what*.

``--serving-p99-gate X`` (CI) fails the run when the 1x-load Poisson
p99 latency exceeds ``X`` times the calibrated full-batch service time.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bench.reporting import fmt_table, percentiles
from repro.hardware import GTX_780, GPUSpec
from repro.serving import (
    ServingConfig,
    ServingNode,
    ServingReport,
    bursty_trace,
    poisson_trace,
)
from repro.serving.trace import ArrivalTrace
from repro.sim.faults import FaultPlan, Straggler

#: Offered-load multiples of calibrated capacity for the Poisson sweep.
LOAD_POINTS = (0.5, 1.0, 2.0, 4.0)
#: Requests per trace (open-loop; thousands, per DESIGN.md §14).
N_REQUESTS = 1000
TRACE_SEED = 2015


def calibrate_capacity(cfg: ServingConfig) -> dict:
    """Measure warm full-batch service times on one replica; derive the
    node's request-rate capacity."""
    from repro.serving.service import _Replica
    from repro.serving.trace import Request

    node = ServingNode(cfg).node
    rep = _Replica(node, 0, cfg)
    rep.warmup()
    times: dict[str, float] = {}
    for kind in ("lenet", "sgemm"):
        reqs = [
            Request(rid=-2 - i, kind=kind, arrival=0.0, seed=i)
            for i in range(cfg.max_batch)
        ]
        rep.engines[kind].serve(reqs)
        # Second serve is the warm steady state (plans cached, graphs
        # captured); use it as the calibrated service time.
        t0 = node.time
        rep.engines[kind].serve(reqs)
        times[kind] = node.time - t0
    mean_service = sum(times.values()) / len(times)
    capacity = cfg.num_gpus * cfg.max_batch / mean_service
    return {
        "service_times": times,
        "mean_service": mean_service,
        "max_replicas": cfg.num_gpus,
        "capacity_rps": capacity,
    }


def _point(report: ServingReport, load_x: float) -> dict:
    return {
        "load_x": load_x,
        "pattern": report.pattern,
        "offered_rate": report.offered_rate,
        "n_requests": report.n_requests,
        "makespan": report.makespan,
        "throughput": report.throughput,
        "goodput": report.goodput,
        "slo_attainment": report.slo_attainment,
        "mean_batch": report.mean_batch,
        "batches": report.batches,
        "peak_replicas": report.peak_replicas,
        "provisionings": report.provisionings,
        "scaling_events": len(report.scaling_events),
        "graph_captures": report.graph_captures,
        "graph_launches": report.graph_launches,
        "results_hash": report.results_hash(),
        **percentiles(report.latencies, (50, 95, 99)),
    }


def measure_serving(
    spec: GPUSpec = GTX_780,
    n: int = N_REQUESTS,
    p99_gate: float | None = None,
) -> dict:
    """Run the full serving benchmark; returns the result tree.

    Raises :class:`AssertionError` on a determinism violation, a
    composition-changed-results violation, or (when ``p99_gate`` is set)
    a blown p99 budget.
    """
    cfg = ServingConfig(spec=spec)
    calib = calibrate_capacity(cfg)
    cap = calib["capacity_rps"]
    results: dict = {
        "spec": spec.name,
        "n_requests": n,
        "slo": cfg.slo,
        "calibration": calib,
        "load_points": [],
    }

    def run(trace: ArrivalTrace, c: ServingConfig = cfg) -> ServingReport:
        return ServingNode(c).run(trace)

    trace_1x = None
    for x in LOAD_POINTS:
        trace = poisson_trace(n, rate=x * cap, seed=TRACE_SEED)
        rep = run(trace)
        results["load_points"].append(_point(rep, x))
        if x == 1.0:
            trace_1x, rep_1x = trace, rep
    assert trace_1x is not None

    bt = bursty_trace(n, rate=cap, seed=TRACE_SEED)
    results["bursty_1x"] = _point(run(bt), 1.0)

    # Determinism: replaying the same trace must be bit-identical, in
    # results *and* in the virtual timeline.
    rep_again = run(trace_1x)
    lat_same = bool(
        np.array_equal(rep_1x.latencies, rep_again.latencies)
    )
    hash_same = rep_1x.results_hash() == rep_again.results_hash()
    results["determinism"] = {
        "latencies_identical": lat_same,
        "results_identical": hash_same,
    }
    assert lat_same and hash_same, "serving replay diverged across runs"

    # Composition: pressure and stragglers may move latency, never bits.
    pressured = run(
        trace_1x, dataclasses.replace(cfg, capacity_frac=0.4)
    )
    straggled = run(
        trace_1x,
        dataclasses.replace(
            cfg,
            faults=FaultPlan(
                stragglers=(Straggler(device=1, compute_factor=2.0),)
            ),
        ),
    )
    results["composition"] = {
        "pressure_0.4x": {
            **_point(pressured, 1.0),
            "results_match_plain": pressured.results_hash()
            == rep_1x.results_hash(),
        },
        "straggler_dev1_2x": {
            **_point(straggled, 1.0),
            "results_match_plain": straggled.results_hash()
            == rep_1x.results_hash(),
        },
    }
    assert results["composition"]["pressure_0.4x"]["results_match_plain"], (
        "memory pressure changed request results"
    )
    assert results["composition"]["straggler_dev1_2x"][
        "results_match_plain"
    ], "straggler injection changed request results"

    if p99_gate is not None:
        budget = p99_gate * calib["mean_service"]
        p99 = next(
            p["p99"] for p in results["load_points"] if p["load_x"] == 1.0
        )
        results["p99_gate"] = {"factor": p99_gate, "budget": budget}
        assert p99 <= budget, (
            f"p99 latency regression: {p99 * 1e3:.3f} ms at 1x load "
            f"exceeds the gate of {p99_gate:g} x service time "
            f"({budget * 1e3:.3f} ms)"
        )
    return results


def serving_report(results: dict) -> str:
    """The result tree as aligned plain-text tables."""
    calib = results["calibration"]

    def row(p: dict, label: str) -> list[str]:
        return [
            label,
            f"{p['offered_rate']:.0f}/s",
            f"{p['p50'] * 1e3:.3f} ms",
            f"{p['p95'] * 1e3:.3f} ms",
            f"{p['p99'] * 1e3:.3f} ms",
            f"{p['goodput']:.0f}/s",
            f"{p['slo_attainment'] * 100:.1f}%",
            f"{p['mean_batch']:.2f}",
            str(p["peak_replicas"]),
        ]

    rows = [
        row(p, f"poisson {p['load_x']:g}x")
        for p in results["load_points"]
    ]
    rows.append(row(results["bursty_1x"], "bursty 1x"))
    t1 = fmt_table(
        f"Serving under load ({results['spec']}, "
        f"capacity {calib['capacity_rps']:.0f} req/s, "
        f"SLO {results['slo'] * 1e3:.0f} ms)",
        [
            "trace",
            "offered",
            "p50",
            "p95",
            "p99",
            "goodput",
            "SLO att.",
            "batch",
            "replicas",
        ],
        rows,
    )
    comp = results["composition"]
    rows2 = [
        [
            name,
            f"{p['p99'] * 1e3:.3f} ms",
            f"{p['goodput']:.0f}/s",
            "yes" if p["results_match_plain"] else "NO",
        ]
        for name, p in comp.items()
    ]
    t2 = fmt_table(
        "Composition at 1x load (latency moves, results must not)",
        ["scenario", "p99", "goodput", "bit-identical"],
        rows2,
    )
    det = results["determinism"]
    t3 = (
        "determinism: latencies "
        + ("identical" if det["latencies_identical"] else "DIVERGED")
        + ", results "
        + ("identical" if det["results_identical"] else "DIVERGED")
    )
    return "\n".join([t1, "", t2, "", t3])
