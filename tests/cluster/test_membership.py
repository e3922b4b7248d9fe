"""Elastic cluster membership tests (ISSUE 10, DESIGN.md §15).

The tentpole property: a crashed (or fenced) node repaired mid-run
announces itself, serves probation, and is re-admitted as an idle spare
with full checkpoint coverage restored — and every such run stays
**bit-identical** to the fault-free board, deterministic across replays.
A plan whose repair events never fire must cost exactly zero simulated
time over the equivalent repair-free plan.
"""

import dataclasses
import functools

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
from repro.cluster.agent import POISON
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


def flap_plan():
    """Each crash lands inside the following probation window."""
    fp = ClusterFaultPlan(
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
    fp.max_flaps = 2
    return fp


def partition_heal_plan():
    """Node 3 is fenced by a partition and repaired once it heals."""
    return ClusterFaultPlan(
        partitions=[
            Partition(groups=((0, 1, 2), (3,)), start=0.0008, end=0.006)
        ],
        node_repairs=[NodeRepair(3, 0.0065)],
    )


def spare_recrash_plan():
    """Node 3 rejoins as a spare, carries checkpoint replicas, crashes
    and rejoins again before the next checkpoint commit; then node 0
    dies and recovery fetches from whichever members hold its rows."""
    return ClusterFaultPlan(
        node_crashes=[
            NodeCrash(3, 0.0015),
            NodeCrash(3, 0.0090),
            NodeCrash(0, 0.0175),
        ],
        node_repairs=[NodeRepair(3, 0.0040), NodeRepair(3, 0.0115)],
        checkpoint_interval=1000,
        checkpoint_replicas=3,
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
        fp = ClusterFaultPlan()
        fp.rejoin_base, fp.rejoin_cap = 1e-3, 3e-3
        assert fp.rejoin_backoff(1) == 1e-3
        assert fp.rejoin_backoff(2) == 2e-3
        assert fp.rejoin_backoff(3) == 3e-3  # capped, not 4e-3
        assert fp.rejoin_backoff(4) == 3e-3
        with pytest.raises(ValueError):
            fp.rejoin_backoff(0)

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
        assert any(cs.agents[2].ckpts.values())  # spare holds copies
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


class TestCheckpointHolders:
    """Checkpoint holders are read from what the agents store, so a node
    that rejoins empty is never counted as a holder."""

    def test_recrashed_spare_is_re_replicated(self, board):
        """The spare's second re-admission follows its crash by less
        than a checkpoint interval: the committed checkpoint still dates
        from when it held replicas, but it rejoins holding nothing, so
        anti-entropy must ship it a full set before node 0's recovery
        can fetch from it."""
        clean = run_cluster(board, 120).board()
        plan = spare_recrash_plan()
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)

        def rows_or_none(rec):
            try:
                return cs.agents[3].checkpoint_rows(rec.cid, rec.lo, rec.hi)
            except KeyError:
                return None

        seen = None  # the state right after node 3's second re-admission
        for _ in range(120):
            cs.step()
            admits = [
                i for i, e in enumerate(cs.log)
                if e.action == "re-admit" and e.node == 3
            ]
            if len(admits) == 2 and seen is None:
                deg = plan.replicas_for(len(cs.monitor.live_nodes()))
                seen = (
                    [(e.action, e.node) for e in cs.log[admits[1] + 1 :]],
                    cs.monitor.replication_deficit(deg),
                    [rows_or_none(rec) for rec in cs.monitor.checkpoints],
                )
        assert np.array_equal(cs.board(), clean)
        after, deficit, served = seen
        assert after[:1] == [("re-replicate", 3)]
        assert deficit == 0
        assert all(rows is not None for rows in served)
        assert plan.recoveries == 2 and plan.nodes_readmitted == 2

    def test_failed_attempt_leaves_no_holder(self, board):
        """A checkpoint attempt that fails mid-way leaves replicas under
        the id its retry reuses; the retry drops them, so only the nodes
        it ships to are holders."""
        cs = run_cluster(board, 4, ClusterFaultPlan(checkpoint_replicas=1))
        (rec,) = [r for r in cs.monitor.checkpoints if r.owner == 0]
        assert cs.monitor.holders(rec) == [0, 1]
        stale = np.zeros((rec.hi - rec.lo, board.shape[1]), np.int32)
        cs.agents[2].store_ckpt(0, rec.cid + 1, rec.lo, rec.hi, stale)
        cs.run(4)  # the next checkpoint reuses id rec.cid + 1
        (rec,) = [r for r in cs.monitor.checkpoints if r.owner == 0]
        assert cs.monitor.holders(rec) == [0, 1]

    @pytest.mark.parametrize(
        "make_plan, ticks",
        [
            (rejoin_plan, 60),
            (functools.partial(rejoin_plan, reslab_on_rejoin=True), 60),
            (flap_plan, 60),
            (partition_heal_plan, 60),
            (spare_recrash_plan, 120),
        ],
        ids=["rejoin", "reslab", "flap-ban", "partition-heal", "spare-recrash"],
    )
    def test_every_named_holder_serves_its_rows(self, board, make_plan, ticks):
        """After every step, each node the monitor names as a checkpoint
        holder is a member and serves the rows it is named for, and none
        of them is a crashed node's poisoned copy."""
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=make_plan())
        rows = board.shape[0]
        for _ in range(ticks):
            cs.step()
            members = cs.monitor.live_nodes()
            cid = cs.monitor.checkpoint_id
            for s_lo, s_hi, holders in cs.monitor.checkpoint_holders(0, rows):
                assert holders  # the degree here always leaves one
                for h in holders:
                    assert h in members
                    data = cs.agents[h].checkpoint_rows(cid, s_lo, s_hi)
                    assert not (data == POISON).any()


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
        plan = flap_plan()
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
        plan = partition_heal_plan()
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
