"""Command-line report runner: ``python -m repro.bench [experiment ...]``.

Regenerates the paper's tables/figures without pytest. With no arguments
it runs everything; otherwise pass experiment names from ``--list``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    deep_learning_throughput,
    gemm_scaling,
    gol_scaling,
    gol_single_gpu_variants,
    histogram_scaling,
    nmf_throughput,
    table4_single_gpu,
    xt_gemm_scaling,
)
from repro.bench.cluster import cluster_report, measure_cluster
from repro.bench.faults import faults_report, measure_faults
from repro.bench.overhead import measure_overhead, overhead_report
from repro.bench.pressure import measure_pressure, pressure_report
from repro.bench.reporting import fmt_table, write_json
from repro.bench.sanitize import measure_sanitize, sanitize_report
from repro.bench.server import measure_server, server_report
from repro.bench.serving import measure_serving, serving_report
from repro.bench.stragglers import measure_stragglers, stragglers_report
from repro.hardware import GTX_780, PAPER_GPUS


def fig6() -> str:
    rows = []
    for spec in PAPER_GPUS:
        for label, r in (
            ("Game of Life", gol_scaling(spec)),
            ("Histogram", histogram_scaling(spec)),
            ("SGEMM", gemm_scaling(spec)),
        ):
            rows.append(
                [spec.name, label] + [f"{s:.2f}x" for s in r.speedups]
            )
    return fmt_table(
        "Figure 6: framework scaling (speedup vs 1 GPU)",
        ["GPU", "App", "1", "2", "3", "4"],
        rows,
    )


def fig7() -> str:
    rows = []
    for spec in PAPER_GPUS:
        t = gol_single_gpu_variants(spec)
        rows.append(
            [spec.name]
            + [f"{t[v] * 1e3:.2f} ms" for v in ("naive", "maps", "maps_ilp")]
        )
    return fmt_table(
        "Figure 7: Game of Life single GPU (8K board)",
        ["GPU", "naive", "MAPS", "MAPS+ILP"],
        rows,
    )


def fig9() -> str:
    rows = []
    for spec in PAPER_GPUS:
        maps, xt = gemm_scaling(spec), xt_gemm_scaling(spec)
        rows.append(
            [spec.name, "maps"] + [f"{s:.2f}x" for s in maps.speedups]
        )
        rows.append([spec.name, "xt"] + [f"{s:.2f}x" for s in xt.speedups])
    return fmt_table(
        "Figure 9: chained 8K SGEMM vs CUBLAS-XT",
        ["GPU", "impl", "1", "2", "3", "4"],
        rows,
    )


def table4() -> str:
    rows = []
    for spec in PAPER_GPUS:
        r = table4_single_gpu(spec)
        rows.append(
            [
                spec.name,
                f"{r['cublas'] * 1e3:.2f} ms",
                f"{r['cublas_over_maps'] * 1e3:.2f} ms",
                f"{r['cublas_xt'] * 1e3:.2f} ms",
            ]
        )
    return fmt_table(
        "Table 4: single-GPU 8K SGEMM",
        ["GPU", "CUBLAS", "over MAPS", "CUBLAS-XT"],
        rows,
    )


def fig11() -> str:
    r = deep_learning_throughput(GTX_780)
    rows = [
        [name] + [f"{tp:.0f}" for tp in tps] for name, tps in r.items()
    ]
    return fmt_table(
        "Figure 11: LeNet throughput img/s (GTX 780, batch 2048)",
        ["impl", "1", "2", "3", "4"],
        rows,
    )


def fig13() -> str:
    rows = []
    for spec in PAPER_GPUS:
        r = nmf_throughput(spec)
        for name, tps in r.items():
            rows.append([spec.name, name] + [f"{tp:.1f}" for tp in tps])
    return fmt_table(
        "Figure 13: NMF iterations/s (16K x 4K, k=128)",
        ["GPU", "impl", "1", "2", "3", "4"],
        rows,
    )


EXPERIMENTS = {
    "fig6": fig6,
    "fig7": fig7,
    "fig9": fig9,
    "table4": table4,
    "fig11": fig11,
    "fig13": fig13,
}

#: Robustness/serving mode flags and what each measures (--list output).
MODES = {
    "--overhead": "host-path overhead, plan cache and iteration graphs "
    "(BENCH_overhead.json)",
    "--faults": "fault-injection recovery overhead (BENCH_faults.json)",
    "--pressure": "graceful degradation under memory pressure "
    "(BENCH_pressure.json)",
    "--stragglers": "straggler mitigation (BENCH_stragglers.json)",
    "--sanitize": "sanitizer functional-mode overhead "
    "(BENCH_sanitize.json)",
    "--server": "multi-tenant job server: queue waits, preemption "
    "overhead, fairness (BENCH_server.json)",
    "--serving": "serving under open-loop load: latency percentiles, "
    "goodput vs offered load, autoscaling (BENCH_serving.json)",
    "--cluster": "multi-node scaling and fault-recovery overhead "
    "(BENCH_cluster.json)",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables/figures, "
        "or run one of the robustness/serving benchmarks (see the "
        "'robustness & serving modes' options).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"subset to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment names and benchmark mode flags, then exit",
    )
    modes = parser.add_argument_group(
        "robustness & serving modes",
        "mutually exclusive measurement modes; each prints a report and "
        "writes a BENCH_*.json artifact instead of running the paper "
        "experiments",
    )
    modes.add_argument(
        "--json",
        metavar="PATH",
        help="output path of the mode's results (default: "
        "BENCH_<mode>.json)",
    )
    modes.add_argument(
        "--overhead",
        action="store_true",
        help="measure host-path overhead (plan cache off vs on) and write "
        "BENCH_overhead.json",
    )
    modes.add_argument(
        "--graph-floor",
        type=float,
        default=None,
        metavar="X",
        help="with --overhead: fail unless every workload's iteration-graph "
        "replay speedup over the cached scheduler reaches this factor "
        "(CI regression gate)",
    )
    modes.add_argument(
        "--faults",
        action="store_true",
        help="measure fault-injection recovery overhead (permanent / "
        "transient / straggler scenarios) and write BENCH_faults.json",
    )
    modes.add_argument(
        "--pressure",
        action="store_true",
        help="measure graceful degradation under device-memory pressure "
        "(capacity clamped to 1.0/0.6/0.3/0.1x of the in-core working "
        "set) and write BENCH_pressure.json",
    )
    modes.add_argument(
        "--stragglers",
        action="store_true",
        help="measure straggler mitigation (device 1 computing 1.5x/2x/4x "
        "slower, plus a transient scenario; unmitigated vs mitigated) and "
        "write BENCH_stragglers.json",
    )
    modes.add_argument(
        "--sanitize",
        action="store_true",
        help="measure the sanitizer's functional-mode overhead (recording "
        "on vs off) and write BENCH_sanitize.json",
    )
    modes.add_argument(
        "--server",
        action="store_true",
        help="measure the multi-tenant job server (queue-wait p50/p95, "
        "preemption overhead vs solo runs, fairness vs offered load; "
        "DESIGN.md §13) and write BENCH_server.json",
    )
    modes.add_argument(
        "--serving",
        action="store_true",
        help="measure serving under open-loop load (Poisson + bursty "
        "traces at 0.5x/1x/2x/4x capacity; dynamic batching, replica "
        "autoscaling, latency SLOs; DESIGN.md §14) and write "
        "BENCH_serving.json",
    )
    modes.add_argument(
        "--serving-requests",
        type=int,
        default=None,
        metavar="N",
        help="with --serving: requests per trace (default: 1000)",
    )
    modes.add_argument(
        "--serving-p99-gate",
        type=float,
        default=None,
        metavar="X",
        help="with --serving: fail unless the 1x-load Poisson p99 latency "
        "stays within X times the calibrated full-batch service time "
        "(CI regression gate)",
    )
    modes.add_argument(
        "--cluster",
        action="store_true",
        help="measure multi-node scaling (1/2/4/8 nodes, timing-only) and "
        "fault-recovery overhead (node crash / partition / slow link, "
        "bit-identity asserted; DESIGN.md §15) and write "
        "BENCH_cluster.json",
    )
    modes.add_argument(
        "--cluster-max-overhead",
        type=float,
        default=None,
        metavar="X",
        help="with --cluster: fail unless single-node-loss recovery stays "
        "within X times the fault-free checkpointed run (default: 2.0; "
        "CI regression gate)",
    )
    args = parser.parse_args(argv)
    if args.list:
        print("experiments:")
        print("\n".join(f"  {n}" for n in sorted(EXPERIMENTS)))
        print("modes:")
        for flag, desc in MODES.items():
            print(f"  {flag:14s}{desc}")
        return 0
    serving_kw = {"p99_gate": args.serving_p99_gate}
    if args.serving_requests is not None:
        serving_kw["n"] = args.serving_requests
    cluster_kw = {}
    if args.cluster_max_overhead is not None:
        cluster_kw["max_overhead"] = args.cluster_max_overhead
    runs = {
        "overhead": (
            lambda: measure_overhead(graph_floor=args.graph_floor),
            overhead_report,
        ),
        "faults": (measure_faults, faults_report),
        "pressure": (measure_pressure, pressure_report),
        "stragglers": (measure_stragglers, stragglers_report),
        "sanitize": (measure_sanitize, sanitize_report),
        "server": (measure_server, server_report),
        "serving": (lambda: measure_serving(**serving_kw), serving_report),
        "cluster": (lambda: measure_cluster(**cluster_kw), cluster_report),
    }
    for mode, (measure, report) in runs.items():
        if getattr(args, mode):
            results = measure()
            print(report(results))
            path = args.json or f"BENCH_{mode}.json"
            write_json(results, path)
            print(f"wrote {path}")
            return 0
    names = args.experiments or sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    for name in names:
        print(EXPERIMENTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
