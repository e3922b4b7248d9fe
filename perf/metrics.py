"""Metric definitions and the statistics the benchmark reports them with.

Every metric the benchmark prints is declared here once: its unit, which
direction is better, which clock it reads, and how far it may worsen
before a change counts as a regression. ``BENCHMARK.json`` at the repository
root repeats the host-clock end-to-end metrics and the per-layer metrics
that every workload reports (``perf/tests`` checks that the two agree).

Bounds: a float is the share of the baseline median a host-clock metric
may worsen by. ``0.0`` means *exact*: simulated-time metrics come from a
deterministic simulator, so they must repeat bit for bit, and a change
that moves one must say why.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

HOST, SIM = "host", "sim"
ALL = ("node_eager", "serving_poisson", "jobserver_openloop", "cluster_elastic")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float
    clock: str  # HOST | SIM
    workloads: tuple[str, ...] = ALL


#: End-to-end metrics, in print order.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, HOST),
    Metric("ops_per_host_s", "op/s", "higher", 0.20, HOST),
    Metric("host_us_per_sim_cmd", "us", "lower", 0.20, HOST),
    Metric("peak_rss_mib", "MiB", "lower", 0.10, HOST),
    Metric("sim_s", "s", "lower", 0.0, SIM),
    Metric("failed_frac", "frac", "lower", 0.0, SIM),
    Metric("latency_p50_ms", "ms", "lower", 0.0, SIM, ("serving_poisson",)),
    Metric("latency_p999_ms", "ms", "lower", 0.0, SIM, ("serving_poisson",)),
    Metric("goodput_rps", "1/s", "higher", 0.0, SIM, ("serving_poisson",)),
    Metric("slo_attainment", "frac", "higher", 0.0, SIM, ("serving_poisson",)),
    Metric("queue_wait_p50_ms", "ms", "lower", 0.0, SIM,
           ("jobserver_openloop",)),
    Metric("queue_wait_p995_ms", "ms", "lower", 0.0, SIM,
           ("jobserver_openloop",)),
    Metric("fairness", "jain", "higher", 0.0, SIM, ("jobserver_openloop",)),
)

#: The end-to-end metrics every workload reports on the host clock: the
#: ones a benchmark run prints in its last-line JSON without ``--trace``.
SHARED_END_TO_END = tuple(
    m for m in END_TO_END if m.clock == HOST and m.workloads == ALL
)

_SERVING = ("serving_poisson",)
_SERVER = ("jobserver_openloop",)
_CLUSTER = ("cluster_elastic",)


def _layer(name, unit, workloads=ALL, better="lower"):
    return Metric(name, unit, better, 0.0, HOST, workloads)


#: Per-layer metrics, read from a traced run. Every ``*_s`` time is self
#: time: a span's duration minus the spans it called.
PER_LAYER = (
    _layer("scheduler.self_s", "s"),
    _layer("scheduler.calls", "count"),
    _layer("scheduler.us_per_invoke", "us"),
    _layer("plan.lookup_s", "s"),
    _layer("plan.hits", "count", better="higher"),
    _layer("plan.misses", "count"),
    _layer("plan.graph_hits", "count", better="higher"),
    _layer("plan.hit_ratio", "frac", better="higher"),
    _layer("analyzer.self_s", "s"),
    _layer("analyzer.calls", "count"),
    _layer("monitor.self_s", "s"),
    _layer("monitor.transition_hits", "count", better="higher"),
    _layer("monitor.transition_misses", "count"),
    _layer("graph.launch_s", "s", _SERVING),
    _layer("graph.launches", "count"),
    _layer("graph.fast_launches", "count", better="higher"),
    _layer("graph.replayed_laps", "count"),
    _layer("engine.self_s", "s"),
    _layer("engine.commands", "count"),
    _layer("engine.us_per_command", "us"),
    _layer("payload.kernel_s", "s", _SERVING + _SERVER),
    _layer("payload.kernel_calls", "count"),
    _layer("payload.copy_s", "s", _SERVING + _SERVER),
    _layer("payload.copy_calls", "count"),
    _layer("sim.copy_bytes", "B"),
    _layer("sim.compute_util", "frac", better="higher"),
    _layer("serving.self_s", "s", _SERVING),
    _layer("serving.batcher_s", "s", _SERVING),
    _layer("serving.autoscaler_s", "s", _SERVING),
    _layer("serving.lenet_serve_s", "s", _SERVING),
    _layer("serving.sgemm_serve_s", "s", _SERVING),
    _layer("serving.batches", "count", _SERVING),
    _layer("serving.mean_batch", "count", _SERVING, better="higher"),
    _layer("serving.peak_replicas", "count", _SERVING),
    _layer("serving.provisionings", "count", _SERVING),
    _layer("serving.scaling_events", "count", _SERVING),
    _layer("server.self_s", "s", _SERVER),
    _layer("server.lease_s", "s", _SERVER),
    _layer("server.us_per_step", "us", _SERVER),
    _layer("server.leases", "count", _SERVER),
    _layer("server.preemptions", "count", _SERVER),
    _layer("server.peak_queue", "count", _SERVER),
    _layer("cluster.master_self_s", "s", _CLUSTER),
    _layer("cluster.agent_s", "s", _CLUSTER),
    _layer("cluster.network_s", "s", _CLUSTER),
    _layer("cluster.fabric_bytes", "B", _CLUSTER),
    _layer("cluster.fabric_transfers", "count", _CLUSTER),
    _layer("cluster.tick_sim_ms_p50", "ms", _CLUSTER),
    _layer("cluster.tick_sim_ms_max", "ms", _CLUSTER),
    _layer("cluster.checkpoints", "count", _CLUSTER),
    _layer("cluster.recoveries", "count", _CLUSTER),
    _layer("cluster.readmitted", "count", _CLUSTER),
    _layer("other_s", "s"),
    _layer("trace.overhead_frac", "frac"),
)

#: Per-layer metrics that every workload reports with a measured (never
#: constant) value or a count: the ones a run prints with ``--trace 1``.
SHARED_PER_LAYER = tuple(
    m for m in PER_LAYER if m.workloads == ALL
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``values`` and how many samples lie
    beyond it: ``q=0.999`` of 16,000 samples is the 15,984th smallest,
    with 16 samples above it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1], len(xs) - rank


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them; a single value is
    its own quartiles."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
