"""Unit tests for the master/agent subsystem's parts (DESIGN.md §15):
the hierarchical cluster monitor, the cluster fault plan's policy
machinery, and the master's failure-detection math."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import (
    ClusterFaultPlan,
    ClusterMonitor,
    ClusterMaster,
    LinkFault,
    NodeCrash,
    Partition,
    SlowLink,
)
from repro.errors import ClusterRecoveryError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel


class TestClusterMonitor:
    def mk(self, rows=64):
        return ClusterMonitor(rows, 16, radius=1, itemsize=4)

    def test_assign_even_and_near_even(self):
        m = self.mk()
        assert m.assign([0, 1, 2, 3], min_rows=2) == {
            0: (0, 16),
            1: (16, 32),
            2: (32, 48),
            3: (48, 64),
        }
        m2 = ClusterMonitor(10, 8, 1, 4)
        slabs = m2.assign([0, 1, 2], min_rows=2)
        assert slabs == {0: (0, 4), 1: (4, 7), 2: (7, 10)}

    def test_assign_leaves_trailing_nodes_idle_on_thin_boards(self):
        m = ClusterMonitor(6, 8, 1, 4)
        slabs = m.assign([0, 1, 2, 3], min_rows=2)
        assert len(slabs) == 3
        assert m.status[3] == "idle"
        assert 3 in m.live_nodes()  # idle spares stay live

    def test_order_and_neighbors(self):
        m = self.mk()
        m.assign([3, 0, 2], min_rows=2)
        assert m.order() == [0, 2, 3]  # id order == row order

    def test_mark_dead_and_fenced_drop_slabs(self):
        m = self.mk()
        m.assign([0, 1], min_rows=2)
        m.mark_dead(0)
        m.mark_fenced(1)
        assert m.slabs == {}
        assert m.live_nodes() == []
        assert m.status == {0: "dead", 1: "fenced"}

    @staticmethod
    def record(m, tick, cid, regions):
        """Commit ``regions`` of ``(lo, hi, holders)`` (owner first) and
        give ``m`` stub agents whose stores hold exactly those copies."""
        m.agents = {n: SimpleNamespace(ckpts={}) for n in m.status}
        for lo, hi, holders in regions:
            for h in holders:
                m.agents[h].ckpts.setdefault(holders[0], {})[cid] = (
                    lo, hi, None,
                )
        m.record_checkpoint(
            tick, cid, [(lo, hi, holders[0]) for lo, hi, holders in regions]
        )

    def test_checkpoint_holders_and_coverage(self):
        m = self.mk()
        m.assign([0, 1, 2, 3], min_rows=2)
        self.record(
            m,
            4,
            1,
            [
                (0, 16, (0, 1)),
                (16, 32, (1, 2)),
                (32, 48, (2, 3)),
                (48, 64, (3, 0)),
            ],
        )
        assert m.checkpoint_tick == 4
        assert m.checkpoint_id == 1
        m.mark_dead(2)
        # rows 16-32 still held by 1; rows 32-48 still held by 3
        segs = m.checkpoint_holders(16, 48)
        assert segs == [(16, 32, [1]), (32, 48, [3])]
        assert m.coverage_gap(0, 64) is None
        m.mark_dead(3)
        gap = m.coverage_gap(0, 64)
        assert gap == (32, 48)

    def test_coverage_gap_detects_uncovered_rows(self):
        m = self.mk()
        m.assign([0, 1], min_rows=2)
        self.record(m, 0, 1, [(0, 32, (0,)), (32, 64, (1,))])
        assert m.coverage_gap(0, 64) is None
        self.record(m, 0, 1, [(0, 32, (0,))])
        assert m.coverage_gap(0, 64) == (32, 64)

    def test_ghost_records_filter_dead_holders(self):
        """Recovery derives who holds a node's edge rows from the ring of
        the last completed exchange: a slab's upper neighbour holds its
        top edge, its lower neighbour its bottom edge, and a holder that
        left the member set holds nothing."""

        def master(nodes, wrap):
            return ClusterMaster(
                GTX_780, nodes, 1, (64, 16), make_gol_kernel("maps"),
                functional=False, wrap=wrap,
            )

        m = master(4, wrap=False)
        assert m._ghost_copies(0, 16, 32) == []  # no exchange yet
        m.run(2)
        assert m._ghost_copies(2, 16, 32) == [(0, 16, 17), (2, 31, 32)]
        assert m._ghost_copies(1, 16, 32) == []  # not that exchange
        # Rows 30-34 span node 1's bottom edge and node 2's top edge.
        assert m._ghost_copies(2, 30, 34) == [(2, 31, 32), (1, 32, 33)]
        # The board's edges have an upper/lower neighbour only on a ring.
        assert m._ghost_copies(2, 0, 16) == [(1, 15, 16)]
        m.monitor.mark_dead(1)
        assert m._ghost_copies(2, 30, 34) == [(2, 31, 32)]
        w = master(4, wrap=True)
        w.run(1)
        assert w._ghost_copies(1, 0, 16) == [(3, 0, 1), (1, 15, 16)]
        # A lone wrapped node exchanges with itself: no other holder.
        lone = master(1, wrap=True)
        lone.run(1)
        assert lone._ghost_copies(1, 0, 64) == []

    def test_hierarchy_descends_to_node_monitors(self):
        rng = np.random.default_rng(0)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        cs = ClusterMaster(GTX_780, 2, 2, board, make_gol_kernel("maps"))
        mon = cs.monitor
        for n in mon.order():
            node_mon = mon.node_monitor(n)
            assert node_mon is cs.agents[n].sched.monitor
        d = mon.describe()
        assert d["slabs"] == {0: (0, 16), 1: (16, 32)}
        assert d["nodes_with_monitors"] == [0, 1]
        assert ClusterMonitor(32, 16, 1, 4).node_monitor(0) is None
        # A recovery rebuilds the survivor onto a fresh scheduler; the
        # hierarchy descends into the new one.
        cs = ClusterMaster(
            GTX_780, 2, 2, board, make_gol_kernel("maps"),
            faults=ClusterFaultPlan(
                checkpoint_replicas=1, node_crashes=[NodeCrash(1, 0.0005)]
            ),
        )
        before = cs.monitor.node_monitor(0)
        cs.run(6)
        assert cs.faults.recoveries == 1
        assert cs.monitor.node_monitor(0) is cs.agents[0].sched.monitor
        assert cs.monitor.node_monitor(0) is not before


class TestClusterFaultPlan:
    def test_crash_lookup(self):
        p = ClusterFaultPlan(
            node_crashes=[NodeCrash(1, 2.0), NodeCrash(1, 1.0)]
        )
        assert p.crash_time(1) == 1.0  # earliest wins
        assert p.crash_time(0) is None
        assert not p.crashed(1, 0.5)
        assert p.crashed(1, 1.0)

    def test_backoff_capped_exponential(self):
        p = ClusterFaultPlan()
        p.retry_base, p.retry_cap = 1e-4, 4e-4
        assert p.backoff(1) == 1e-4
        assert p.backoff(2) == 2e-4
        assert p.backoff(3) == 4e-4
        assert p.backoff(10) == 4e-4  # capped
        with pytest.raises(ValueError):
            p.backoff(0)

    def test_link_fault_counters_are_stateful(self):
        p = ClusterFaultPlan(
            link_faults=[LinkFault(src=0, dst=1, nth=2, count=2)]
        )
        hits = [p.link_fault_now(0, 1) for _ in range(5)]
        assert hits == [False, True, True, False, False]
        assert p.link_faults_fired == 2
        # other links never match, and don't advance this spec's counter
        assert not p.link_fault_now(1, 0)

    def test_specs_sharing_a_link_advance_its_count_once(self):
        # Regression: each spec on (0, 1) used to advance the shared
        # count, so the nth=3 spec saw counts 2, 4, ... and never fired.
        p = ClusterFaultPlan(link_faults=[
            LinkFault(0, 1, nth=1), LinkFault(0, 1, nth=3),
        ])
        hits = [p.link_fault_now(0, 1) for _ in range(5)]
        assert hits == [True, False, True, False, False]
        assert p.link_faults_fired == 2

    def test_link_fault_rate_is_seed_deterministic(self):
        a = ClusterFaultPlan(seed=7, link_fault_rate=0.5)
        b = ClusterFaultPlan(seed=7, link_fault_rate=0.5)
        seq_a = [a.link_fault_now(0, 1) for _ in range(32)]
        seq_b = [b.link_fault_now(0, 1) for _ in range(32)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_partition_reachability_window(self):
        p = ClusterFaultPlan(
            partitions=[Partition(groups=((0, 1), (2, 3)), start=1.0, end=2.0)]
        )
        assert p.reachable(0, 2, 0.5)  # before the window
        assert not p.reachable(0, 2, 1.5)
        assert p.reachable(0, 1, 1.5)  # same group
        assert p.reachable(0, 2, 2.0)  # healed (half-open window)

    def test_unnamed_nodes_form_one_implicit_group(self):
        # Regression: reachable(3, 0) was True but reachable(0, 3) False.
        p = ClusterFaultPlan(
            partitions=[Partition(groups=((0, 1), (2,)), start=0.0, end=1.0)]
        )
        assert not p.reachable(3, 0, 0.5)
        assert not p.reachable(0, 3, 0.5)
        assert not p.reachable(2, 3, 0.5)
        assert not p.reachable(3, 2, 0.5)
        assert p.reachable(3, 4, 0.5) and p.reachable(4, 3, 0.5)
        # The head agrees: {3, 4} outnumbers {2} and ties {0, 1} on size.
        assert p.master_group([0, 1, 2, 3, 4], 0.5) == [0, 1]
        assert p.master_group([0, 2, 3, 4], 0.5) == [3, 4]

    def test_master_sits_on_largest_group(self):
        p = ClusterFaultPlan(
            partitions=[
                Partition(groups=((0,), (1, 2, 3)), start=0.0, end=1.0)
            ]
        )
        assert p.master_group([0, 1, 2, 3], 0.5) == [1, 2, 3]
        assert p.master_group([0, 1, 2, 3], 1.5) == [0, 1, 2, 3]

    def test_master_group_tie_breaks_to_lowest_id(self):
        p = ClusterFaultPlan(
            partitions=[
                Partition(groups=((0, 1), (2, 3)), start=0.0, end=1.0)
            ]
        )
        assert p.master_group([0, 1, 2, 3], 0.5) == [0, 1]

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ClusterFaultPlan(
                partitions=[
                    Partition(groups=((0, 1), (1, 2)), start=0.0, end=1.0)
                ]
            )
        with pytest.raises(ValueError):
            ClusterFaultPlan(
                partitions=[Partition(groups=((0, 1),), start=0.0, end=1.0)]
            )
        with pytest.raises(ValueError):
            ClusterFaultPlan(
                partitions=[
                    Partition(groups=((0,), (1,)), start=2.0, end=1.0)
                ]
            )

    def test_slow_link_validation_and_lookup(self):
        with pytest.raises(ValueError):
            ClusterFaultPlan(slow_links=[SlowLink(factor=0.5)])
        p = ClusterFaultPlan(
            slow_links=[
                SlowLink(src=0, dst=1, factor=4.0, start=1.0, end=2.0),
                SlowLink(factor=2.0),
            ]
        )
        assert p.slow_factor(0, 1, 1.5) == 4.0  # worst match wins
        assert p.slow_factor(0, 1, 2.5) == 2.0  # windowed one healed
        assert p.slow_factor(2, 3, 0.0) == 2.0  # wildcard matches all

    def test_replicas_for_any_minority_default(self):
        p = ClusterFaultPlan()
        assert p.replicas_for(1) == 0
        assert p.replicas_for(2) == 0
        assert p.replicas_for(4) == 1
        assert p.replicas_for(5) == 2
        assert p.replicas_for(8) == 3
        q = ClusterFaultPlan(checkpoint_replicas=5)
        assert q.replicas_for(3) == 2  # clamped to ring size - 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClusterFaultPlan(checkpoint_interval=0)
        with pytest.raises(ValueError):
            ClusterFaultPlan(link_fault_rate=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"link_faults": [LinkFault(nth=0)]},
        {"link_faults": [LinkFault(count=0)]},
    ], ids=["nth0", "count0"])
    def test_rejects_inputs_it_would_mishandle(self, kwargs):
        with pytest.raises(ValueError):
            ClusterFaultPlan(**kwargs)

    def test_no_checkpoints_makes_any_loss_checkpoint_lost(self):
        """``checkpoint_interval=None`` insures nothing: the first node
        loss finds no coordinated checkpoint to rebuild from."""
        rng = np.random.default_rng(0)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        plan = ClusterFaultPlan(
            checkpoint_interval=None, node_crashes=[NodeCrash(1, 0.0009)]
        )
        cs = ClusterMaster(
            GTX_780, 4, 2, board, make_gol_kernel("maps"), faults=plan
        )
        with pytest.raises(ClusterRecoveryError) as ei:
            cs.run(10)
        assert ei.value.reason == "checkpoint-lost"
        assert plan.checkpoints_taken == 0 and plan.recoveries == 1


class TestFailureDetector:
    def mk(self, **detector):
        rng = np.random.default_rng(0)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        plan = ClusterFaultPlan()
        for name, value in detector.items():
            setattr(plan, name, value)
        master = ClusterMaster(
            GTX_780, 2, 2, board, make_gol_kernel("maps"), faults=plan
        )
        return master, plan

    def test_declared_dead_counts_consecutive_misses(self):
        master, plan = self.mk(
            heartbeat_interval=1e-3,
            heartbeat_timeout=5e-4,
            miss_threshold=3,
        )
        # crash at 2.5 ms -> sends at 3, 4, 5 ms miss -> declared 5.5 ms
        assert master._declared_dead(0, 2.5e-3) == pytest.approx(5.5e-3)
        assert plan.heartbeats_missed == 3

    def test_declared_dead_skips_sends_while_link_busy(self):
        master, plan = self.mk(
            heartbeat_interval=1e-3,
            heartbeat_timeout=5e-4,
            miss_threshold=2,
        )
        # Node 0's uplink is draining a 25 MB transfer (~5 ms at the
        # 5 GB/s default): heartbeats during the drain are suppressed,
        # misses only count once the link is idle.
        master.network.transfer(0, 1, 25_000_000, ready=0.0)
        busy = master.network.busy_until(0)
        assert busy > 4e-3
        declared = master._declared_dead(0, 0.5e-3)
        first_send = (int(busy / 1e-3) + 1) * 1e-3
        assert declared == pytest.approx(first_send + 1e-3 + 5e-4)

    def test_heartbeat_detection_time_reflected_in_recovery(self):
        """Detection latency (miss_threshold * interval + timeout) shows
        up in the declared-dead time of the recovery log."""
        rng = np.random.default_rng(0)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        crash_t = 0.0008
        # The plan's detector: heartbeat_interval 5e-4, heartbeat_timeout
        # 2e-4, miss_threshold 3.
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(1, crash_t)],
            # 2-node ring: the any-minority default degree is 0, so ask
            # for full replication explicitly to survive a 1-node loss.
            checkpoint_replicas=1,
        )
        cs = ClusterMaster(
            GTX_780, 2, 2, board, make_gol_kernel("maps"), faults=plan
        )
        cs.run(10)
        (event,) = cs.events
        assert event.node == 1 and event.cause == "crash"
        # declared >= crash + (threshold-1)*interval + timeout
        assert event.time >= crash_t + 2 * 5e-4 + 2e-4
        assert plan.heartbeats_missed >= 3
