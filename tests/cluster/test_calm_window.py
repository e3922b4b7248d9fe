"""The master's calm window against the full fault-plan checks
(DESIGN.md §15).

Inside the window ``ClusterFaultPlan.calm_until`` returns, the master
answers its crash, reachability, slow-link and link-fault questions with
the fault-free answers instead of asking the plan. Forcing the window
shut (``calm_until`` returns -inf) sends every question through the full
checks. Each scenario below, on a functional 4-node board, must then
produce the same board, the same cluster time after every tick, the same
event log, the same fabric counters and the same plan counters.
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    LinkFault,
    NodeCrash,
    NodeRepair,
    Partition,
    SlowLink,
)
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel

KERNEL = make_gol_kernel("maps")
TICKS = 60
COUNTERS = (
    "heartbeats_sent", "heartbeats_missed", "messages_retried",
    "link_faults_fired", "nodes_lost", "recoveries", "checkpoints_taken",
)


def _logged(detail):
    return lambda r: any(detail in e.detail for e in r["log"])


#: name -> (plan factory, what shows the scenario's faults happened).
SCENARIOS = {
    "mid_compute_crash": (
        lambda: ClusterFaultPlan(node_crashes=[NodeCrash(1, 0.0009)]),
        _logged("mid-compute"),
    ),
    "crash_repair_reslab": (
        lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015)],
            node_repairs=[NodeRepair(2, 0.004)],
            reslab_on_rejoin=True,
        ),
        _logged("enlarged survivor set"),
    ),
    # Node 2 is re-admitted at about 6.678 ms and crashes again while the
    # re-slab's checkpoint ships it replicas, in the same tick: the
    # membership pass runs before that tick's window is taken.
    "crash_after_readmission": (
        lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015), NodeCrash(2, 0.00668)],
            node_repairs=[NodeRepair(2, 0.004)],
            reslab_on_rejoin=True,
        ),
        _logged("checkpoint from"),
    ),
    "minority_partition": (
        lambda: ClusterFaultPlan(
            partitions=[Partition(((0, 1, 2), (3,)), 0.0008, 0.006)]
        ),
        _logged("fabric partition"),
    ),
    "slow_link_25x": (
        lambda: ClusterFaultPlan(
            slow_links=[SlowLink(1, 2, factor=25.0, start=0.001, end=0.004)]
        ),
        lambda r: r["log"] == [],
    ),
    # The window opens once the spec's three faults have fired.
    "link_fault_spec": (
        lambda: ClusterFaultPlan(link_faults=[LinkFault(0, 1, nth=6, count=3)]),
        lambda r: r["counters"]["link_faults_fired"] == 3,
    ),
    # A loss rate keeps a fault pending forever: never calm.
    "link_fault_rate": (
        lambda: ClusterFaultPlan(seed=7, link_fault_rate=0.02),
        lambda r: r["counters"]["link_faults_fired"] > 0,
    ),
    # The re-admitted spare crashes again while the next checkpoint ships
    # it replicas (checkpoint_replicas=3 tops spares up).
    "spare_crash_while_shipping": (
        lambda: ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0015), NodeCrash(2, 0.008)],
            node_repairs=[NodeRepair(2, 0.004)],
            checkpoint_replicas=3,
        ),
        _logged("undeliverable"),
    ),
}


def _board():
    rng = np.random.default_rng(1)
    return (rng.random((64, 32)) < 0.4).astype(np.int32)


def _run(make_plan, monkeypatch, calm: bool) -> tuple[dict, int]:
    """Every observable of one run, and its number of crash queries."""
    queries = {"crash_in": 0}
    crash_in = ClusterFaultPlan.crash_in

    def counted(self, *args):
        queries["crash_in"] += 1
        return crash_in(self, *args)

    with monkeypatch.context() as mp:
        mp.setattr(ClusterFaultPlan, "crash_in", counted)
        if not calm:
            mp.setattr(
                ClusterFaultPlan, "calm_until", lambda self, t, m: -math.inf
            )
        plan = make_plan()
        m = ClusterMaster(GTX_780, 4, 2, _board(), KERNEL, faults=plan)
        times = []
        for _ in range(TICKS):
            m.step()
            times.append(m.time)
    return {
        "board": m.board().tobytes(),
        "times": times,
        "log": m.log,
        "errors": [type(e.error) for e in m.log],
        "link_bytes": dict(m.network.link_bytes),
        "link_transfers": dict(m.network.link_transfers),
        "counters": {c: getattr(plan, c) for c in COUNTERS},
    }, queries["crash_in"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_calm_window_matches_full_checks(name, monkeypatch):
    make_plan, live = SCENARIOS[name]
    calm, calm_queries = _run(make_plan, monkeypatch, calm=True)
    full, full_queries = _run(make_plan, monkeypatch, calm=False)
    assert live(calm), calm["log"]
    # The window skipped crash queries, unless it never opened.
    if name == "link_fault_rate":
        assert calm_queries == full_queries
    else:
        assert calm_queries < full_queries
    for key in full:
        assert calm[key] == full[key], key
