"""Fault-tolerant cluster failover: kill nodes mid-run, same answer.

The §15 subsystem in one demo: a master drives per-node agents over the
simulated fabric, detecting failures by heartbeat, fencing partitioned
minorities, and rebuilding the board from peer-replicated checkpoints —
with the final board **bit-identical** to the fault-free run, down to a
single surviving node. A repaired node rejoins through probation and
the board is redistributed back over the full cluster. Every scenario
here asserts that equality; the printed times show what the insurance
and each recovery cost.

Run: ``python examples/cluster_failover.py``
"""

import numpy as np

from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    NodeCrash,
    NodeRepair,
    Partition,
)
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel

KERNEL = make_gol_kernel("maps")


def run(board, ticks, plan=None):
    cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
    cs.run(ticks)
    return cs


def main() -> None:
    rng = np.random.default_rng(9)
    board = (rng.random((64, 32)) < 0.4).astype(np.int32)
    ticks = 40

    clean = run(board, ticks)
    print(f"fault-free:          {clean.time * 1e3:6.2f} ms, 4 nodes")

    insured = run(board, ticks, ClusterFaultPlan())
    assert np.array_equal(insured.board(), clean.board())
    print(
        f"checkpointing on:    {insured.time * 1e3:6.2f} ms "
        f"({insured.time / clean.time:.2f}x — the price of insurance)"
    )

    plan = ClusterFaultPlan(node_crashes=[NodeCrash(2, 0.0015)])
    crash = run(board, ticks, plan)
    assert np.array_equal(crash.board(), clean.board())
    (event,) = crash.events
    print(
        f"node 2 crashes:      {crash.time * 1e3:6.2f} ms "
        f"({crash.time / insured.time:.2f}x) — declared dead at "
        f"{event.time * 1e3:.2f} ms, re-slabbed onto "
        f"{len(crash.monitor.slabs)} nodes, board bit-identical"
    )

    plan = ClusterFaultPlan(
        partitions=[
            Partition(groups=((0, 1, 2), (3,)), start=0.0008, end=1.0)
        ]
    )
    part = run(board, ticks, plan)
    assert np.array_equal(part.board(), clean.board())
    print(
        f"node 3 partitioned:  {part.time * 1e3:6.2f} ms "
        f"({part.time / insured.time:.2f}x) — minority fenced, "
        "board bit-identical"
    )

    plan = ClusterFaultPlan(
        checkpoint_replicas=2,
        checkpoint_interval=2,
        node_crashes=[
            NodeCrash(0, 0.0005),
            NodeCrash(2, 0.004),
            NodeCrash(3, 0.009),
        ],
    )
    lone = run(board, ticks, plan)
    assert np.array_equal(lone.board(), clean.board())
    assert lone.monitor.slabs == {1: (0, 64)}
    print(
        f"3 crashes, 1 lives:  {lone.time * 1e3:6.2f} ms "
        f"({lone.time / insured.time:.2f}x) — {plan.recoveries} "
        "recoveries, last node holds the whole board, bit-identical"
    )

    plan = ClusterFaultPlan(
        node_crashes=[NodeCrash(2, 0.0015)],
        node_repairs=[NodeRepair(2, 0.004)],
        reslab_on_rejoin=True,
    )
    rejoin = run(board, ticks, plan)
    assert np.array_equal(rejoin.board(), clean.board())
    assert rejoin.monitor.status[2] == "live"
    assert sorted(rejoin.monitor.slabs) == [0, 1, 2, 3]
    assert plan.nodes_readmitted == 1
    admitted = next(
        e for e in rejoin.log if e.action == "re-admit"
    )
    print(
        f"crash, then repair:  {rejoin.time * 1e3:6.2f} ms "
        f"({rejoin.time / insured.time:.2f}x) — node 2 re-admitted at "
        f"{admitted.time * 1e3:.2f} ms after probation, board "
        "re-slabbed over 4 nodes, bit-identical"
    )

    replay = run(board, ticks, ClusterFaultPlan(
        checkpoint_replicas=2,
        checkpoint_interval=2,
        node_crashes=[
            NodeCrash(0, 0.0005),
            NodeCrash(2, 0.004),
            NodeCrash(3, 0.009),
        ],
    ))
    assert np.array_equal(replay.board(), lone.board())
    assert replay.time == lone.time
    print("seeded replay:       identical board and simulated time")


if __name__ == "__main__":
    main()
