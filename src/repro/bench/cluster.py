"""Cluster benchmark: multi-node scaling and recovery overhead (§15).

``python -m repro.bench --cluster`` measures two things and writes
``BENCH_cluster.json``:

* **Scaling** — the distributed Game of Life board, timing-only, on
  1/2/4/8 nodes (2 simulated GPUs each) over the simulated fabric: the
  cross-node analogue of Figure 6's intra-node curve. Per-node ghost
  exchanges ride the fabric instead of the PCIe model, so the curve bends
  where the network bisection starts to matter.

* **Recovery overhead** — the fault-free checkpointing run (the price of
  insurance) against four fault scenarios on 4 nodes: one node crash, two
  spaced crashes, a minority partition, and a degraded (slow) link. Every
  faulted run is functional-mode and asserted **bit-identical** to the
  fault-free board; the two-crash scenario is run twice and asserted
  deterministic (same board, same simulated time). The single-crash
  scenario is the acceptance gate: its simulated time must stay within
  ``max_overhead`` (default 2.0x) of the fault-free checkpointed run.

* **Elastic membership** — crash-then-repair scenarios exercising node
  re-admission (ISSUE 10): a crashed node repaired mid-run must pass
  probation, rejoin as an idle spare, and restore full checkpoint
  coverage (``replication_deficit == 0``); the reslab variant must
  redistribute the board back over all four nodes. An *armed-but-idle*
  plan (a repair scheduled far past the horizon) is asserted to cost
  **exactly zero** simulated time over the plain crash run — the
  membership machinery may not perturb runs that never use it.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import fmt_table
from repro.cluster import (
    MEMBERSHIP_ACTIONS,
    ClusterFaultPlan,
    ClusterMaster,
    NodeCrash,
    NodeRepair,
    Partition,
    SlowLink,
)
from repro.hardware.specs import GPUSpec, GTX_780
from repro.kernels.game_of_life import make_gol_kernel

NODE_COUNTS = (1, 2, 4, 8)
GPUS_PER_NODE = 2
#: Acceptance gate: losing one node may cost at most this factor over the
#: fault-free checkpointed run (ISSUE 9 / ROADMAP item 2).
MAX_OVERHEAD = 2.0


def _scaling(spec: GPUSpec, rows: int, cols: int, ticks: int) -> dict:
    """Strong scaling, timing-only: fixed board, growing node count."""
    kernel = make_gol_kernel("maps")
    out = {}
    for n in NODE_COUNTS:
        cs = ClusterMaster(
            spec, n, GPUS_PER_NODE, (rows, cols), kernel, functional=False
        )
        cs.run(ticks)
        out[n] = {"sim_time": cs.time}
    t1 = out[1]["sim_time"]
    for n in NODE_COUNTS:
        out[n]["speedup"] = t1 / out[n]["sim_time"]
    return out


def _fault_scenarios() -> dict:
    """Fault-plan factories, fresh per run (plans hold RNG/counter state).

    Times are placed mid-run for the recovery board geometry (64 rows, 4
    nodes: a fault-free tick is ~0.2 ms); the two crashes are spaced
    wider than the detection + re-replication latency (~2 ms), since a
    faster cascade is genuinely unrecoverable.
    """
    return {
        "crash_1": lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015)]
        ),
        "crash_2_spaced": lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(1, 0.0009), NodeCrash(3, 0.005)]
        ),
        "partition_minority": lambda: ClusterFaultPlan(
            partitions=[
                Partition(groups=((0, 1, 2), (3,)), start=0.0008, end=1.0)
            ]
        ),
        "slow_link_25x": lambda: ClusterFaultPlan(
            slow_links=[SlowLink(src=1, dst=2, factor=25.0)]
        ),
    }


def _elastic_scenarios() -> dict:
    """Crash-then-repair plan factories (ISSUE 10). The repair at 4 ms
    lands after the crash has been detected and recovered (~3.2 ms), so
    the node re-announces, serves probation, and rejoins well inside the
    30-tick horizon."""
    return {
        # checkpoint_replicas=3 makes the anti-entropy visible: the
        # 3-survivor interregnum can only sustain factor 2, so the
        # rejoined spare must be shipped a full replica set.
        "crash_repair_rejoin": lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015)],
            node_repairs=[NodeRepair(2, 0.004)],
            checkpoint_replicas=3,
        ),
        "crash_repair_reslab": lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015)],
            node_repairs=[NodeRepair(2, 0.004)],
            reslab_on_rejoin=True,
        ),
        # A repair scheduled far past the horizon: the membership
        # machinery is armed but never fires. Must cost exactly nothing.
        "armed_idle": lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015)],
            node_repairs=[NodeRepair(2, 1000.0)],
        ),
    }


def _run_recovery(
    spec: GPUSpec, board: np.ndarray, ticks: int, plan
) -> tuple[np.ndarray, dict, ClusterMaster]:
    kernel = make_gol_kernel("maps")
    cs = ClusterMaster(spec, 4, GPUS_PER_NODE, board, kernel, faults=plan)
    cs.run(ticks)
    fp = cs.faults
    stats = {
        "sim_time": cs.time,
        "nodes_left": len(cs.monitor.slabs),
        "recoveries": fp.recoveries,
        "nodes_lost": fp.nodes_lost,
        "checkpoints": fp.checkpoints_taken,
        "events": [type(e).__name__ for e in cs.events],
    }
    if fp.node_repairs:
        stats["membership"] = [
            e.action for e in cs.log if e.action in MEMBERSHIP_ACTIONS
        ]
        stats["nodes_readmitted"] = fp.nodes_readmitted
        stats["replicas_shipped"] = fp.replicas_shipped
    return cs.board(), stats, cs


def measure_cluster(
    spec: GPUSpec = GTX_780,
    scaling_rows: int = 2048,
    scaling_cols: int = 2048,
    scaling_ticks: int = 8,
    recovery_rows: int = 64,
    recovery_cols: int = 32,
    recovery_ticks: int = 30,
    max_overhead: float = MAX_OVERHEAD,
) -> dict:
    """Run the scaling curve, the recovery matrix, and the elastic
    membership scenarios; return the result tree. Raises
    :class:`AssertionError` if a faulted board deviates from the
    fault-free one, if a replay is nondeterministic, if single-node-loss
    or rejoin overhead exceeds ``max_overhead``, if a repaired node fails
    to rejoin with full checkpoint coverage, or if an armed-but-idle
    repair plan costs any simulated time over the plain crash run."""
    results: dict = {
        "spec": spec.name,
        "gpus_per_node": GPUS_PER_NODE,
        "max_overhead": max_overhead,
        "scaling": {
            "rows": scaling_rows,
            "cols": scaling_cols,
            "ticks": scaling_ticks,
            "nodes": _scaling(spec, scaling_rows, scaling_cols, scaling_ticks),
        },
    }

    rng = np.random.default_rng(1)
    board = (
        rng.random((recovery_rows, recovery_cols)) < 0.4
    ).astype(np.int32)
    # The reference answer (faults=None: an empty plan, checkpoints off)
    # and the cost baseline (checkpointing on, nothing fails) are
    # different runs: the baseline pays for checkpoints, the reference
    # pays for nothing.
    clean, no_plan, _ = _run_recovery(spec, board, recovery_ticks, None)
    base_board, baseline, _ = _run_recovery(
        spec, board, recovery_ticks, ClusterFaultPlan()
    )
    assert np.array_equal(base_board, clean), "checkpointing changed results"
    recovery = {
        "rows": recovery_rows,
        "cols": recovery_cols,
        "ticks": recovery_ticks,
        "no_faults_no_checkpoints": no_plan,
        "baseline": dict(
            baseline,
            insurance_overhead=baseline["sim_time"] / no_plan["sim_time"],
        ),
    }
    for name, make_plan in _fault_scenarios().items():
        out, stats, _ = _run_recovery(spec, board, recovery_ticks, make_plan())
        assert np.array_equal(out, clean), (
            f"{name}: recovered board is not bit-identical"
        )
        stats["overhead"] = stats["sim_time"] / baseline["sim_time"]
        stats["bit_identical"] = True
        recovery[name] = stats

    replay, stats2, _ = _run_recovery(
        spec, board, recovery_ticks, _fault_scenarios()["crash_2_spaced"]()
    )
    assert np.array_equal(replay, clean)
    assert stats2["sim_time"] == recovery["crash_2_spaced"]["sim_time"], (
        "two-crash recovery replays nondeterministically"
    )
    recovery["deterministic_replay"] = True

    gate = recovery["crash_1"]["overhead"]
    assert gate <= max_overhead, (
        f"single-node-loss overhead {gate:.2f}x exceeds the "
        f"{max_overhead:.1f}x acceptance gate"
    )
    results["recovery"] = recovery

    elastic: dict = {}
    for name, make_plan in _elastic_scenarios().items():
        plan = make_plan()
        out, stats, cs = _run_recovery(spec, board, recovery_ticks, plan)
        assert np.array_equal(out, clean), (
            f"{name}: board after re-admission is not bit-identical"
        )
        stats["overhead"] = stats["sim_time"] / baseline["sim_time"]
        stats["bit_identical"] = True
        if name == "armed_idle":
            # Zero-overhead invariant: an armed-but-unused repair plan
            # must match the plain crash run to the last float.
            assert stats["sim_time"] == recovery["crash_1"]["sim_time"], (
                "armed-but-idle repair plan perturbed the crash run"
            )
            stats["zero_overhead"] = True
        else:
            assert "re-admit" in stats["membership"], (
                f"{name}: node was never re-admitted"
            )
            deg = plan.replicas_for(len(cs.monitor.live_nodes()))
            deficit = cs.monitor.replication_deficit(deg)
            assert deficit == 0, (
                f"{name}: replication deficit {deficit} after rejoin"
            )
            stats["replication_deficit"] = deficit
            if name == "crash_repair_rejoin":
                assert stats["replicas_shipped"] > 0, (
                    "anti-entropy shipped nothing at factor 3"
                )
            assert stats["overhead"] <= max_overhead, (
                f"{name}: overhead {stats['overhead']:.2f}x exceeds the "
                f"{max_overhead:.1f}x acceptance gate"
            )
        if name == "crash_repair_rejoin":
            assert cs.monitor.status[2] == "idle", (
                "rejoined node should be an idle spare"
            )
        if name == "crash_repair_reslab":
            assert cs.monitor.status[2] == "live", (
                "reslab_on_rejoin should restore the node to the ring"
            )
            assert len(cs.monitor.slabs) == 4, (
                "reslab_on_rejoin should redistribute over all 4 nodes"
            )
        elastic[name] = stats

    _, stats2, cs2 = _run_recovery(
        spec, board, recovery_ticks,
        _elastic_scenarios()["crash_repair_rejoin"](),
    )
    assert stats2["sim_time"] == elastic["crash_repair_rejoin"]["sim_time"], (
        "rejoin scenario replays nondeterministically"
    )
    assert stats2["membership"] == elastic["crash_repair_rejoin"][
        "membership"
    ], "membership log replays nondeterministically"
    elastic["deterministic_replay"] = True
    results["elastic"] = elastic
    return results


def cluster_report(results: dict) -> str:
    """The result tree as aligned plain-text tables."""
    sc = results["scaling"]
    rows = [
        [
            str(n),
            f"{sc['nodes'][n]['sim_time'] * 1e3:.2f} ms",
            f"{sc['nodes'][n]['speedup']:.2f}x",
        ]
        for n in NODE_COUNTS
    ]
    scaling = fmt_table(
        f"Cluster scaling: Game of Life {sc['rows']}x{sc['cols']}, "
        f"{sc['ticks']} ticks, {results['gpus_per_node']} GPUs/node, "
        f"{results['spec']}",
        ["nodes", "sim time", "speedup"],
        rows,
    )
    rec = results["recovery"]
    rows = [
        [
            "baseline",
            f"{rec['baseline']['sim_time'] * 1e3:.2f} ms",
            "1.00x",
            "4",
            "0",
            "-",
        ]
    ]
    for name in (
        "crash_1", "crash_2_spaced", "partition_minority", "slow_link_25x"
    ):
        r = rec[name]
        rows.append(
            [
                name,
                f"{r['sim_time'] * 1e3:.2f} ms",
                f"{r['overhead']:.2f}x",
                str(r["nodes_left"]),
                str(r["recoveries"]),
                "yes" if r["bit_identical"] else "NO",
            ]
        )
    recovery = fmt_table(
        f"Recovery overhead: {rec['rows']}x{rec['cols']} board, "
        f"{rec['ticks']} ticks, 4 nodes (gate: crash_1 <= "
        f"{results['max_overhead']:.1f}x)",
        ["scenario", "sim time", "overhead", "nodes", "recoveries",
         "bit-identical"],
        rows,
    )
    el = results["elastic"]
    rows = []
    for name in ("crash_repair_rejoin", "crash_repair_reslab", "armed_idle"):
        r = el[name]
        rows.append(
            [
                name,
                f"{r['sim_time'] * 1e3:.2f} ms",
                f"{r['overhead']:.2f}x",
                str(r["nodes_left"]),
                str(r.get("nodes_readmitted", 0)),
                str(r.get("replicas_shipped", 0)),
                "yes" if r["bit_identical"] else "NO",
            ]
        )
    elastic = fmt_table(
        "Elastic membership: crash at 1.5 ms, repair at 4 ms "
        "(armed_idle: repair past horizon, exact-zero overhead)",
        ["scenario", "sim time", "overhead", "slabs", "readmitted",
         "shipped", "bit-identical"],
        rows,
    )
    return scaling + "\n\n" + recovery + "\n\n" + elastic
