"""Elastic cluster membership tests (ISSUE 10, DESIGN.md §15).

The tentpole property: a crashed (or fenced) node repaired mid-run
announces itself, serves probation, and is re-admitted as an idle spare
with full checkpoint coverage restored — and every such run stays
**bit-identical** to the fault-free board, deterministic across replays.
A plan whose repair events never fire must cost exactly zero simulated
time over the equivalent repair-free plan.
"""

import dataclasses

import numpy as np
import pytest

from repro import FaultPlan, NodeBannedError, NodeFailure, Straggler
from repro.cluster import (
    ClusterFaultPlan,
    MEMBERSHIP_ACTIONS,
    ClusterEvent,
    ClusterMaster,
    NodeCrash,
    NodeRepair,
    Partition,
)
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel

KERNEL = make_gol_kernel("maps")


def make_board(rows=64, cols=32, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < 0.4).astype(np.int32)


def run_cluster(board, ticks, plan=None, **kw):
    cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan, **kw)
    cs.run(ticks)
    return cs


@pytest.fixture(scope="module")
def board():
    return make_board()


@pytest.fixture(scope="module")
def clean_60(board):
    cs = run_cluster(board, 60)
    return cs.board(), cs.time


def membership(cs):
    return [e for e in cs.log if e.action in MEMBERSHIP_ACTIONS]


def actions(cs):
    return [e.action for e in membership(cs)]


# Crash at 1.5 ms is detected and recovered by ~3.2 ms; the repair at
# 4 ms then re-announces, serves the 2 ms probation, and rejoins at
# ~6.7 ms — comfortably inside a 40-tick (~8 ms fault-free) horizon.
CRASH_AT = 0.0015
REPAIR_AT = 0.004


def rejoin_plan(**kw):
    return ClusterFaultPlan(
        node_crashes=[NodeCrash(2, CRASH_AT)],
        node_repairs=[NodeRepair(2, REPAIR_AT)],
        **kw,
    )


class TestTimeline:
    """ClusterFaultPlan's normalized availability timeline."""

    def test_crash_repair_round_trip(self):
        fp = rejoin_plan()
        assert fp.crashed(2, CRASH_AT) and fp.crashed(2, REPAIR_AT - 1e-9)
        assert not fp.crashed(2, REPAIR_AT)  # repaired exactly at t
        assert fp.crash_time(2) == CRASH_AT
        assert fp.crash_time(2, now=REPAIR_AT) is None
        assert fp.repairs_of(2) == [REPAIR_AT]

    def test_crash_in_window_is_half_open(self):
        fp = rejoin_plan()
        assert fp.crash_in(2, 0.0, 1.0) == CRASH_AT
        assert fp.crash_in(2, CRASH_AT, 1.0) is None  # open at t0
        assert fp.crash_in(2, 0.0, CRASH_AT) == CRASH_AT  # closed at t1
        assert fp.crash_in(1, 0.0, 1.0) is None

    def test_crash_in_catches_crash_and_reboot_inside_one_window(self):
        """A node that dies *and* is repaired between two probes must
        still read as lost — rebooted nodes never resume silently."""
        fp = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.002)],
            node_repairs=[NodeRepair(2, 0.0021)],
        )
        assert not fp.crashed(2, 0.003)  # up again by the probe...
        assert fp.crash_in(2, 0.001, 0.003) == 0.002  # ...but was down

    def test_redundant_transitions_dropped(self):
        fp = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.001), NodeCrash(2, 0.002)],
            node_repairs=[NodeRepair(2, 0.003), NodeRepair(2, 0.004)],
        )
        # Second crash lands while already down, second repair while
        # already up: both are no-ops for availability...
        assert fp.crash_in(2, 0.001, 1.0) is None
        assert not fp.crashed(2, 0.0035)
        # ...but BOTH repairs stay visible to the master's membership
        # cursor (a fenced node repairs without ever having crashed).
        assert fp.repairs_of(2) == [0.003, 0.004]

    def test_equal_time_crash_sorts_first(self):
        fp = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.002)],
            node_repairs=[NodeRepair(2, 0.002)],
        )
        assert not fp.crashed(2, 0.002)  # down-and-straight-back-up
        assert fp.crash_in(2, 0.001, 0.003) == 0.002  # still detectable

    def test_rejoin_backoff_caps(self):
        fp = ClusterFaultPlan(rejoin_base=1e-3, rejoin_cap=3e-3)
        assert fp.rejoin_backoff(1) == 1e-3
        assert fp.rejoin_backoff(2) == 2e-3
        assert fp.rejoin_backoff(3) == 3e-3  # capped, not 4e-3
        assert fp.rejoin_backoff(4) == 3e-3
        with pytest.raises(ValueError):
            fp.rejoin_backoff(0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClusterFaultPlan(probation_interval=0.0)
        with pytest.raises(ValueError):
            ClusterFaultPlan(rejoin_base=0.0)
        with pytest.raises(ValueError):
            ClusterFaultPlan(rejoin_cap=-1.0)
        with pytest.raises(ValueError):
            ClusterFaultPlan(max_flaps=0)

    def test_no_repairs_not_armed(self):
        fp = ClusterFaultPlan(node_crashes=[NodeCrash(2, 0.001)])
        assert fp.node_repairs == []
        assert fp.repairs_of(2) == []


class TestRejoin:
    def test_rejoin_bit_identical_with_audit_log(self, board, clean_60):
        clean, _ = clean_60
        plan = rejoin_plan()
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "idle"  # spare, not in the ring
        assert sorted(cs.monitor.slabs) == [0, 1, 3]
        assert actions(cs) == [
            "dead", "repair-announce", "probation-start", "re-admit",
        ]
        assert all(isinstance(e, ClusterEvent) for e in cs.log)
        ts = [e.time for e in membership(cs)]
        assert ts == sorted(ts) and all(e.node == 2 for e in membership(cs))
        # The recovery of the crash brackets the membership "dead" entry.
        assert [e.action for e in cs.log][:3] == ["failure", "dead", "resume"]
        assert plan.nodes_repaired == 1 and plan.nodes_readmitted == 1
        assert plan.nodes_banned == 0 and plan.probations_failed == 0
        stats = cs.membership_stats()
        assert stats["actions"]["re-admit"] == 1
        assert stats["status"][2] == "idle"

    def test_anti_entropy_restores_replication(self, board, clean_60):
        """At factor 3 the 3-survivor interregnum can only hold factor
        2, so re-admission must ship the spare a full replica set."""
        clean, _ = clean_60
        plan = rejoin_plan(checkpoint_replicas=3)
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert plan.replicas_shipped > 0
        deg = plan.replicas_for(len(cs.monitor.live_nodes()))
        assert cs.monitor.replication_deficit(deg) == 0
        assert cs.agents[2].peer_ckpts  # spare actually holds copies
        assert "re-replicate" in actions(cs)

    def test_reslab_on_rejoin_restores_capacity(self, board, clean_60):
        clean, _ = clean_60
        plan = rejoin_plan(reslab_on_rejoin=True)
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "live"  # back in the ring
        assert sorted(cs.monitor.slabs) == [0, 1, 2, 3]
        assert actions(cs)[-1] == "reslab"
        assert plan.reslabs == 1

    def test_rejoined_spare_absorbs_later_crash(self, board, clean_60):
        """The whole point of re-admission: the spare keeps quorum alive
        through a second loss that 3 survivors alone could not shrug off
        as cheaply."""
        clean, _ = clean_60
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, CRASH_AT), NodeCrash(1, 0.008)],
            node_repairs=[NodeRepair(2, REPAIR_AT)],
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "live"  # pulled into the ring
        assert cs.monitor.status[1] == "dead"
        assert sorted(cs.monitor.slabs) == [0, 2, 3]
        assert plan.recoveries == 2 and plan.nodes_readmitted == 1

    def test_repair_during_active_recovery(self, board, clean_60):
        """A repair scheduled before the crash is even *declared*: the
        announce is deferred to the next membership tick after recovery
        and the node still rejoins cleanly."""
        clean, _ = clean_60
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, CRASH_AT)],
            node_repairs=[NodeRepair(2, CRASH_AT + 1e-4)],
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "idle"
        assert "re-admit" in actions(cs)

    def test_run_twice_deterministic(self, board):
        runs = [run_cluster(board, 60, rejoin_plan()) for _ in range(2)]
        assert runs[0].time == runs[1].time
        assert np.array_equal(runs[0].board(), runs[1].board())
        assert runs[0].log == runs[1].log


class TestProbationFailure:
    def test_crash_repair_crash_same_window(self, board, clean_60):
        """Flap faster than one probation window: the node announces but
        dies again before the window closes, so probation fails and the
        node stays dead (the survivors carry on bit-identically)."""
        clean, _ = clean_60
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0009), NodeCrash(2, 0.001)],
            node_repairs=[NodeRepair(2, 0.00095)],
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "dead"
        assert actions(cs) == [
            "dead", "repair-announce", "probation-start", "probation-fail",
        ]
        assert plan.probations_failed == 1 and plan.nodes_readmitted == 0

    def test_flapping_node_banned(self, board, clean_60):
        """Each crash lands inside the following probation window, so
        every probation fails; the third announce exceeds max_flaps=2
        and the node is permanently banned with a typed error."""
        clean, _ = clean_60
        plan = ClusterFaultPlan(
            max_flaps=2,
            node_crashes=[
                NodeCrash(2, 0.0009),
                NodeCrash(2, 0.005),
                NodeCrash(2, 0.0075),
            ],
            node_repairs=[
                NodeRepair(2, 0.004),
                NodeRepair(2, 0.0055),
                NodeRepair(2, 0.008),
            ],
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "banned"
        assert actions(cs)[-1] == "ban"
        assert plan.nodes_banned == 1 and plan.probations_failed == 2
        banned = [e for e in cs.events if isinstance(e, NodeBannedError)]
        (err,) = banned
        assert err.node == 2 and err.cause == "flapping" and err.flaps == 3
        assert isinstance(err, NodeFailure)  # hierarchy

    def test_partition_heal_readmits_fenced_minority(self, board, clean_60):
        """A fenced node never crashed — its repair must still announce
        (the membership cursor reads raw repair events, not the crash
        timeline) and the heartbeat probe passes once the fabric heals."""
        clean, _ = clean_60
        plan = ClusterFaultPlan(
            partitions=[
                Partition(groups=((0, 1, 2), (3,)), start=0.0008, end=0.006)
            ],
            node_repairs=[NodeRepair(3, 0.0065)],
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[3] == "idle"
        assert actions(cs) == [
            "fence", "repair-announce", "probation-start", "re-admit",
        ]
        assert plan.nodes_readmitted == 1


class TestZeroOverhead:
    def test_armed_but_idle_plan_costs_exactly_nothing(self, board):
        """A repair event past the horizon arms the whole membership
        machinery but never fires: simulated time, counters, and board
        must match the repair-free crash run exactly."""
        crash_only = ClusterFaultPlan(node_crashes=[NodeCrash(2, CRASH_AT)])
        armed = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, CRASH_AT)],
            node_repairs=[NodeRepair(2, 1000.0)],
        )
        a = run_cluster(board, 40, crash_only)
        b = run_cluster(board, 40, armed)
        assert a.time == b.time  # exact float equality, not approx
        assert np.array_equal(a.board(), b.board())
        assert crash_only.messages_retried == armed.messages_retried
        assert crash_only.heartbeats_missed == armed.heartbeats_missed
        assert crash_only.checkpoints_taken == armed.checkpoints_taken
        # The log exists (plan is armed) but records only the crash.
        assert actions(b) == ["dead"]

    def test_no_repairs_keeps_empty_log(self, board):
        cs = run_cluster(board, 10, ClusterFaultPlan())
        assert cs.log == []
        assert cs.membership_stats()["events"] == 0


class TestComposition:
    def test_rejoin_with_intra_node_straggler(self, board, clean_60):
        """§11 composition: the rebuilt node carries its stateful
        intra-node fault plan across the reboot — a straggling GPU on
        the rejoined node slows ticks, never changes the answer."""
        clean, _ = clean_60
        plan = rejoin_plan(
            reslab_on_rejoin=True,
            node_plans={
                2: FaultPlan(stragglers=[Straggler(0, compute_factor=3.0)])
            },
        )
        cs = run_cluster(board, 60, plan)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[2] == "live"
        assert actions(cs)[-1] == "reslab"

    def test_rejoin_with_capped_spec_pressure(self, board, clean_60):
        """§10 composition: the rejoined node runs a memory-capped spec;
        reslab over the enlarged survivor set still fits and matches."""
        clean, _ = clean_60
        capped = dataclasses.replace(
            GTX_780, global_memory_bytes=64 * 1024 * 1024
        )
        plan = rejoin_plan(reslab_on_rejoin=True)
        cs = run_cluster(board, 60, plan, node_specs={2: capped})
        assert np.array_equal(cs.board(), clean)
        assert sorted(cs.monitor.slabs) == [0, 1, 2, 3]
        assert cs.monitor.status[2] == "live"
