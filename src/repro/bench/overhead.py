"""Host-path overhead benchmark: plan cache on vs. off (§4.3).

The paper amortizes host-side scheduling work across the repeated
invocations of iterative workloads ("the segmentation phase is performed
once ... subsequent invocations reuse the analysis"). This benchmark
measures that amortization directly: it submits ``ITERS`` repeated
invocations of each flagship workload (Game of Life, histogram, chained
SGEMM — all at the paper's 8K scale) on a timing-only node and times the
*host* wall-clock of the submission loop with the invocation plan cache
enabled vs. disabled.

Disabling the cache (``Scheduler(plan_cache=False)``) turns off every
cross-invocation amortization — plan replay, copy-decision memoization
and the location monitor's transition memoization — so the baseline is an
honest "recompute everything per invocation" scheduler.

Both modes must produce identical simulated timelines and identical
command streams; the benchmark asserts this (``sim_time`` and
``commands`` equality) rather than trusting it.

On top of the cached scheduler, a third rung measures iteration-graph
replay (DESIGN.md §12): ``Loop.replay`` captures one steady-state period
of each workload and launches the remaining whole periods as a single
macro-command. Because the capture boundaries insert drain barriers that
an uninterrupted eager loop would not have, the graph run is checked
bit-for-bit against a "twin" — an eager cached run with ``wait_all``
calls at exactly the capture/launch points — rather than against the
plain cached run.
"""

from __future__ import annotations

import time

from repro.bench.reporting import best_of, fmt_table
from repro.bench.workloads import TIMING, drain, steady
from repro.core import Scheduler
from repro.hardware.specs import GPUSpec, GTX_780
from repro.sim.node import SimNode

#: Paper scale (§5: "8K square") and invocation count per measurement.
PAPER_SIZE = 8192
ITERS = 100
#: Wall-clock measurements repeat this many times; the minimum is reported
#: (standard practice for host-overhead microbenchmarks — the minimum is
#: the least noise-contaminated sample).
REPEATS = 3
NUM_GPUS = 4

#: Measurement modes, cheapest host path last. ``twin`` is the eager
#: bit-identity reference for ``graph`` (same wait_all sync structure).
MODES = ("uncached", "cached", "twin", "graph")


def _run(name: str, mode: str, spec: GPUSpec, size: int, iters: int) -> dict:
    node = SimNode(spec, NUM_GPUS, functional=False)
    sched = Scheduler(node, plan_cache=mode != "uncached")
    loop = TIMING[name](sched, size)
    loop.warm_up()
    t0 = time.perf_counter()
    graph = steady(loop, iters, mode if mode in ("twin", "graph") else "eager")
    t1 = time.perf_counter()
    drain(loop, iters)
    out = {
        "submit_s": t1 - t0,
        "drain_s": time.perf_counter() - t1,
        "sim_time": node.time,
        "commands": node.engine.commands_executed,
        "plan_cache": sched.plans.stats,
        "transitions": {
            "hits": sched.monitor.transition_hits,
            "misses": sched.monitor.transition_misses,
        },
    }
    if graph is not None:
        out["graph"] = {
            "replayable": graph.replayable,
            "reason": graph.reason,
            "launches": graph.launches,
            "fast_launches": graph.fast_launches,
            "replayed_laps": graph.replayed_laps,
        }
    return out


WORKLOADS = tuple(TIMING)


def _submit(r: dict) -> float:
    return r["submit_s"]


def _total(r: dict) -> float:
    return r["submit_s"] + r["drain_s"]


def measure_overhead(
    spec: GPUSpec = GTX_780,
    size: int = PAPER_SIZE,
    iters: int = ITERS,
    repeats: int = REPEATS,
    graph_floor: float | None = None,
) -> dict:
    """Run every workload uncached / cached / graph-replayed; return the
    result tree.

    Raises :class:`AssertionError` if a cached run's simulated time or
    command count diverges from its uncached baseline, or a graph run's
    from its eager twin — plan replay and graph replay must both be pure
    wall-clock optimizations. With ``graph_floor`` set, additionally
    asserts that every workload's graph-replay speedup over the cached
    scheduler (total wall-clock, submit + drain) reaches the floor.
    """
    if iters < 5:
        raise ValueError("need iters >= 5 to capture a steady-state period")
    results: dict = {
        "spec": spec.name,
        "num_gpus": NUM_GPUS,
        "size": size,
        "iters": iters,
        "repeats": repeats,
        "graph_floor": graph_floor,
        "workloads": {},
    }
    for name in WORKLOADS:
        uncached = best_of(
            lambda: _run(name, "uncached", spec, size, iters), repeats, _submit
        )
        cached = best_of(
            lambda: _run(name, "cached", spec, size, iters), repeats, _submit
        )
        # The twin is only the graph's bit-identity reference; one run.
        twin = _run(name, "twin", spec, size, iters)
        # Graph submission and drain interleave inside launch(); rank
        # repeats by total wall-clock.
        graph = best_of(
            lambda: _run(name, "graph", spec, size, iters), repeats, _total
        )
        assert cached["sim_time"] == uncached["sim_time"], (
            f"{name}: plan cache changed simulated time "
            f"({cached['sim_time']} != {uncached['sim_time']})"
        )
        assert cached["commands"] == uncached["commands"], (
            f"{name}: plan cache changed the command count "
            f"({cached['commands']} != {uncached['commands']})"
        )
        assert graph["graph"]["replayable"], (
            f"{name}: capture not replayable: {graph['graph']['reason']}"
        )
        assert graph["graph"]["fast_launches"] == graph["graph"]["launches"], (
            f"{name}: graph launch fell back to eager replay"
        )
        assert graph["plan_cache"]["graph_hits"] > 0, (
            f"{name}: graph replay did not count any graph_hits"
        )
        assert graph["sim_time"] == twin["sim_time"], (
            f"{name}: graph replay changed simulated time "
            f"({graph['sim_time']} != {twin['sim_time']})"
        )
        assert graph["commands"] == twin["commands"], (
            f"{name}: graph replay changed the command count "
            f"({graph['commands']} != {twin['commands']})"
        )
        replay_speedup = _total(cached) / _total(graph)
        if graph_floor is not None:
            assert replay_speedup >= graph_floor, (
                f"{name}: graph replay speedup {replay_speedup:.2f}x "
                f"under the floor {graph_floor:.2f}x"
            )
        results["workloads"][name] = {
            "uncached": uncached,
            "cached": cached,
            "twin": twin,
            "graph": graph,
            "submit_speedup": uncached["submit_s"] / cached["submit_s"],
            "total_speedup": _total(uncached) / _total(cached),
            "replay_speedup": replay_speedup,
        }
    return results


def overhead_report(results: dict) -> str:
    """The result tree as an aligned plain-text table."""
    rows = []
    for name, r in results["workloads"].items():
        rows.append(
            [
                name,
                f"{r['uncached']['submit_s'] * 1e3:.1f} ms",
                f"{r['cached']['submit_s'] * 1e3:.1f} ms",
                f"{r['submit_speedup']:.2f}x",
                f"{r['total_speedup']:.2f}x",
                f"{_total(r['graph']) * 1e3:.1f} ms",
                f"{r['replay_speedup']:.2f}x",
                str(r["cached"]["commands"]),
            ]
        )
    title = (
        f"Host-path overhead: {results['iters']} invocations, "
        f"{results['size']}^2, {results['num_gpus']}x {results['spec']} "
        "(plan cache off vs on vs iteration-graph replay)"
    )
    return fmt_table(
        title,
        [
            "workload",
            "uncached",
            "cached",
            "speedup",
            "total",
            "iteration_graph",
            "replay",
            "commands",
        ],
        rows,
    )
