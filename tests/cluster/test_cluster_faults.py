"""Fault-tolerance tests for the master/agent cluster (DESIGN.md §15).

The tentpole property under test everywhere: killing any minority of
nodes mid-run — crash, partition, escalated intra-node failure — yields a
final board **bit-identical** to the fault-free run, deterministically
across seeded replays; and the unrecoverable configurations fail with the
right typed :class:`~repro.errors.ClusterRecoveryError` reason instead of
a wrong answer."""

import dataclasses
import math

import numpy as np
import pytest

from repro import (
    ClusterRecoveryError,
    DeviceFailure,
    FaultPlan,
    LinkError,
    NodeFailure,
    PartitionError,
    Straggler,
)
from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    LinkFault,
    NodeCrash,
    NodeRepair,
    Partition,
    SlowLink,
)
from repro.cluster.agent import POISON
from repro.hardware import GTX_780
from repro.kernels.game_of_life import gol_reference_step, make_gol_kernel

KERNEL = make_gol_kernel("maps")


def make_board(rows=64, cols=32, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < 0.4).astype(np.int32)


def fault_free(board, ticks, num_nodes=4, gpus=2, **kw):
    cs = ClusterMaster(GTX_780, num_nodes, gpus, board, KERNEL, **kw)
    cs.run(ticks)
    return cs.board(), cs.time


class TestCrashRecovery:
    @pytest.mark.parametrize("victim", [0, 1, 3])
    def test_single_crash_bit_identical(self, victim):
        board = make_board()
        clean, t_clean = fault_free(board, 10)
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(victim, 0.0009)]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        assert victim not in cs.monitor.slabs
        assert cs.monitor.status[victim] == "dead"
        (event,) = cs.events
        assert isinstance(event, NodeFailure) and event.node == victim
        assert plan.recoveries == 1 and plan.nodes_lost == 1
        assert cs.time > t_clean  # recovery costs simulated time

    def test_crash_also_matches_reference_automaton(self):
        board = make_board(rows=32, cols=16)
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(2, 0.0006)])
        cs = ClusterMaster(GTX_780, 4, 1, board, KERNEL, faults=plan)
        cs.run(8)
        ref = board.copy()
        for _ in range(8):
            ref = gol_reference_step(ref, wrap=False)
        assert np.array_equal(cs.board(), ref)

    def test_simultaneous_minority_crash(self):
        """2 of 8 nodes die at the same instant; the any-minority
        default replication (deg 3) covers both slabs."""
        board = make_board()
        clean, _ = fault_free(board, 12, num_nodes=8, gpus=1)
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(2, 0.0009), NodeCrash(5, 0.0009)]
        )
        cs = ClusterMaster(GTX_780, 8, 1, board, KERNEL, faults=plan)
        cs.run(12)
        assert np.array_equal(cs.board(), clean)
        assert len(cs.monitor.slabs) == 6
        assert plan.nodes_lost == 2

    def test_down_to_single_survivor(self):
        """Successive crashes shrink 4 nodes to 1; every recovery
        re-checkpoints over the survivors so the next loss recovers."""
        board = make_board()
        clean, _ = fault_free(board, 40)
        plan = ClusterFaultPlan(
            checkpoint_replicas=2,
            checkpoint_interval=2,
            node_crashes=[
                NodeCrash(0, 0.0005),
                NodeCrash(2, 0.004),
                NodeCrash(3, 0.009),
            ],
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(40)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.slabs == {1: (0, 64)}
        assert plan.recoveries == 3
        assert [e.node for e in cs.events] == [0, 2, 3]

    def test_crash_with_wrap_ring(self):
        board = make_board()
        clean, _ = fault_free(board, 10, wrap=True)
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 0.0009)])
        cs = ClusterMaster(
            GTX_780, 4, 2, board, KERNEL, wrap=True, faults=plan
        )
        cs.run(10)
        assert np.array_equal(cs.board(), clean)

    def test_dead_node_memory_is_poisoned(self):
        """Fail-stop means *gone*: the dead agent's host arrays are
        poisoned, so any silent read-back would corrupt the board
        (and the bit-identity asserts would catch it)."""
        board = make_board()
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 0.0009)])
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        dead = cs.agents[1]
        assert cs.monitor.status[1] == "dead" and dead.node.crashed
        for d in dead.slabs:
            assert (d.host == POISON).all()

    def test_recovery_overhead_is_bounded(self):
        """Acceptance gate (also enforced by `repro.bench --cluster`):
        losing one node costs <= 2x the fault-free simulated time."""
        board = make_board()
        base = ClusterMaster(
            GTX_780, 4, 2, board, KERNEL, faults=ClusterFaultPlan()
        )
        base.run(20)
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(2, 0.0015)])
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(20)
        assert cs.time <= 2.0 * base.time


class TestPartitions:
    def test_minority_partition_fenced_bit_identical(self):
        board = make_board()
        clean, _ = fault_free(board, 10)
        plan = ClusterFaultPlan(
            partitions=[
                Partition(groups=((0, 1, 2), (3,)), start=0.0008, end=1.0)
            ]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[3] == "fenced"
        (event,) = cs.events
        assert isinstance(event, PartitionError)
        assert event.isolated == (3,)

    def test_fenced_node_never_readmitted_after_heal(self):
        """The partition heals mid-run; the fenced node stays out (a
        stale minority must never write back into the board)."""
        board = make_board()
        clean, _ = fault_free(board, 30)
        plan = ClusterFaultPlan(
            partitions=[
                Partition(
                    groups=((0, 1, 2), (3,)), start=0.0008, end=0.008
                )
            ]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(30)
        assert cs.time > 0.008  # ran well past the heal
        assert cs.monitor.status[3] == "fenced"
        assert 3 not in cs.monitor.slabs
        assert np.array_equal(cs.board(), clean)

    def test_short_partition_absorbed_by_retries(self):
        """A partition shorter than the retry budget delays messages but
        causes no fencing and no recovery."""
        board = make_board()
        clean, _ = fault_free(board, 10)
        plan = ClusterFaultPlan(
            partitions=[
                Partition(
                    groups=((0, 1), (2, 3)), start=0.0004, end=0.00055
                )
            ]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        assert cs.events == []
        assert plan.recoveries == 0
        assert plan.messages_retried > 0

    def test_even_split_is_no_quorum(self):
        """A 2-2 split leaves the master without a strict majority:
        fencing would resolve a split-brain by fiat, so it refuses."""
        board = make_board()
        plan = ClusterFaultPlan(
            partitions=[
                Partition(groups=((0, 1), (2, 3)), start=0.0008, end=1.0)
            ]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        with pytest.raises(ClusterRecoveryError) as ei:
            cs.run(10)
        assert ei.value.reason == "no-quorum"


class TestLinkFaults:
    def test_transient_loss_absorbed(self):
        board = make_board()
        clean, t_clean = fault_free(board, 12)
        plan = ClusterFaultPlan(
            link_faults=[LinkFault(src=0, dst=1, nth=3, count=2)]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(12)
        assert np.array_equal(cs.board(), clean)
        assert plan.link_faults_fired == 2
        assert plan.messages_retried >= 2
        assert plan.recoveries == 0 and cs.events == []

    def test_seeded_loss_rate_absorbed_and_deterministic(self):
        board = make_board()
        clean, _ = fault_free(board, 12)
        runs = []
        for _ in range(2):
            plan = ClusterFaultPlan(seed=11, link_fault_rate=0.05)
            cs = ClusterMaster(
                GTX_780, 4, 2, board, KERNEL, faults=plan
            )
            cs.run(12)
            runs.append((cs.board(), cs.time, plan.link_faults_fired))
        assert np.array_equal(runs[0][0], clean)
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2] > 0

    def test_persistent_link_fences_receiver(self):
        """A link that stays bad past the retry budget is
        indistinguishable from a dead NIC: the receiver is fenced and
        the board is still recovered bit-identically."""
        board = make_board()
        clean, _ = fault_free(board, 10)
        # nth=5 lets the tick-0 checkpoint replication through; the link
        # then fails permanently mid-run.
        plan = ClusterFaultPlan(
            link_faults=[LinkFault(src=0, dst=1, nth=5, count=1000)]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        assert cs.monitor.status[1] == "fenced"
        assert any(
            isinstance(e, LinkError) and not isinstance(e, PartitionError)
            for e in cs.events
        )

    def test_slow_link_changes_nothing_but_time(self):
        board = make_board()
        clean, _ = fault_free(board, 12)
        base = ClusterMaster(
            GTX_780, 4, 2, board, KERNEL, faults=ClusterFaultPlan()
        )
        base.run(12)
        plan = ClusterFaultPlan(
            slow_links=[SlowLink(src=1, dst=2, factor=50.0)]
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(12)
        assert np.array_equal(cs.board(), clean)
        assert cs.time > base.time
        assert plan.recoveries == 0


class TestUnrecoverable:
    def test_two_node_loss_without_replicas_is_checkpoint_lost(self):
        board = make_board()
        plan = ClusterFaultPlan(  # deg 0: any loss is fatal on 2 nodes
            node_crashes=[NodeCrash(1, 0.0009)]
        )
        cs = ClusterMaster(GTX_780, 2, 2, board, KERNEL, faults=plan)
        with pytest.raises(ClusterRecoveryError) as ei:
            cs.run(10)
        assert ei.value.reason == "checkpoint-lost"
        assert isinstance(ei.value.__cause__, NodeFailure)

    def test_all_nodes_lost_is_no_survivors(self):
        board = make_board()
        plan = ClusterFaultPlan(
            checkpoint_replicas=1,
            node_crashes=[NodeCrash(0, 0.0009), NodeCrash(1, 0.0009)],
        )
        cs = ClusterMaster(GTX_780, 2, 2, board, KERNEL, faults=plan)
        with pytest.raises(ClusterRecoveryError) as ei:
            cs.run(10)
        assert ei.value.reason == "no-survivors"

    def test_cascade_faster_than_replication_is_checkpoint_lost(self):
        """Nodes dying faster than recovery can re-replicate: the third
        crash lands mid-recovery, before the fresh checkpoint commits."""
        board = make_board()
        plan = ClusterFaultPlan(
            checkpoint_replicas=2,
            checkpoint_interval=2,
            node_crashes=[
                NodeCrash(0, 0.0005),
                NodeCrash(2, 0.0015),
                NodeCrash(3, 0.0030),
            ],
        )
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        with pytest.raises(ClusterRecoveryError) as ei:
            cs.run(40)
        assert ei.value.reason == "checkpoint-lost"


class TestHierarchicalFaultDomains:
    def test_intra_node_faults_recovered_inside_the_node(self):
        """One GPU dies inside node 1: the per-node scheduler absorbs it
        (PR 2 machinery) and the cluster sees nothing. Intra-node
        absorption needs a host replica of the source buffer, which the
        cluster checkpoint's full-slab gather provides — checkpointing
        every tick makes any failure time coverable."""
        board = make_board()
        clean, _ = fault_free(board, 10)
        inner = FaultPlan(device_failures=[DeviceFailure(0, 0.0005)])
        plan = ClusterFaultPlan(node_plans={1: inner}, checkpoint_interval=1)
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        assert cs.events == [] and plan.recoveries == 0
        assert cs.agents[1].sched.alive_devices == (1,)

    def test_node_losing_every_gpu_escalates_to_cluster(self):
        """Intra-node recovery exhausts -> UnrecoverableError escalates
        to NodeFailure(cause="agent-error") -> cluster recovery."""
        board = make_board()
        clean, _ = fault_free(board, 10)
        inner = FaultPlan(
            device_failures=[
                DeviceFailure(0, 0.0005),
                DeviceFailure(1, 0.0006),
            ]
        )
        plan = ClusterFaultPlan(node_plans={2: inner})
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        assert np.array_equal(cs.board(), clean)
        (event,) = cs.events
        assert isinstance(event, NodeFailure)
        assert event.node == 2 and event.cause == "agent-error"
        assert cs.monitor.status[2] == "dead"

    def test_crash_straggler_pressure_compose_across_nodes(self):
        """The full composition: node 1 crashes, node 2 straggles, node 3
        runs under a memory-capacity clamp (pressure ladder), all in one
        run — still bit-identical to the clean run."""
        board = make_board()
        clean, _ = fault_free(board, 12)
        capped = dataclasses.replace(
            GTX_780, global_memory_bytes=64 * 1024 * 1024
        )
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(1, 0.0012)],
            node_plans={
                2: FaultPlan(
                    stragglers=[Straggler(0, compute_factor=8.0)]
                ),
            },
        )
        cs = ClusterMaster(
            GTX_780,
            4,
            2,
            board,
            KERNEL,
            faults=plan,
            node_specs={3: capped},
        )
        cs.run(12)
        assert np.array_equal(cs.board(), clean)
        assert plan.recoveries == 1
        assert [e.node for e in cs.events] == [1]

    def test_straggling_survivor_slows_recovery_not_results(self):
        board = make_board()
        clean, _ = fault_free(board, 12)
        mk = lambda: ClusterFaultPlan(  # noqa: E731
            node_crashes=[NodeCrash(0, 0.0009)],
            node_plans={
                3: FaultPlan(
                    stragglers=[Straggler(1, compute_factor=6.0)]
                )
            },
        )
        slow = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=mk())
        slow.run(12)
        fast_plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(0, 0.0009)]
        )
        fast = ClusterMaster(
            GTX_780, 4, 2, board, KERNEL, faults=fast_plan
        )
        fast.run(12)
        assert np.array_equal(slow.board(), clean)
        assert np.array_equal(fast.board(), clean)
        assert slow.time > fast.time


class TestDeterminism:
    def _plan(self):
        return ClusterFaultPlan(
            seed=5,
            link_fault_rate=0.02,
            node_crashes=[NodeCrash(2, 0.0011)],
            slow_links=[SlowLink(src=0, dst=1, factor=3.0)],
        )

    def test_two_fresh_replays_identical(self):
        """The acceptance criterion: two seeded replays of the same
        fault schedule produce identical boards, times, fault sequences
        and recovery actions."""
        board = make_board()
        runs = []
        for _ in range(2):
            plan = self._plan()
            cs = ClusterMaster(
                GTX_780, 4, 2, board, KERNEL, faults=plan
            )
            cs.run(14)
            runs.append(
                (
                    cs.board(),
                    cs.time,
                    plan.link_faults_fired,
                    plan.messages_retried,
                    plan.heartbeats_missed,
                    [(e, type(e.error).__name__) for e in cs.log],
                )
            )
        a, b = runs
        assert np.array_equal(a[0], b[0])
        assert a[1:] == b[1:]

    def test_timing_mode_runs_fault_schedule_end_to_end(self):
        """Timing-only mode (no arrays) executes the same crash +
        recovery schedule and lands on the identical simulated time as
        the functional run (the satellite parity requirement, under
        faults)."""
        board = make_board()
        f = ClusterMaster(
            GTX_780, 4, 2, board, KERNEL, faults=self._plan()
        )
        f.run(14)
        t = ClusterMaster(
            GTX_780,
            4,
            2,
            (64, 32),
            KERNEL,
            functional=False,
            faults=self._plan(),
        )
        t.run(14)
        assert f.time == t.time
        assert len(t.events) == len(f.events)


class TestObservability:
    def test_recovery_log_structure(self):
        board = make_board()
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 0.0009)])
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(10)
        failure, lost, resume = cs.log
        assert (failure.action, lost.action, resume.action) == (
            "failure", "dead", "resume"
        )
        assert lost.node == 1 and failure.node == 1
        assert type(failure.error) is NodeFailure
        assert cs.events == [failure.error]
        assert resume.node is None and resume.tick <= lost.tick
        assert resume.time >= lost.time  # rebuild barriers after
        assert plan.checkpoints_taken >= 2  # initial + post-recovery

    def test_counters_stay_zero_without_faults(self):
        board = make_board()
        plan = ClusterFaultPlan()
        cs = ClusterMaster(GTX_780, 4, 2, board, KERNEL, faults=plan)
        cs.run(8)
        assert plan.link_faults_fired == 0
        assert plan.heartbeats_missed == 0
        assert plan.nodes_lost == 0
        assert plan.recoveries == 0
        assert plan.heartbeats_sent > 0
        assert plan.checkpoints_taken == 1 + 8 // plan.checkpoint_interval


class TestGhostCrossCheck:
    """Recovery step 6: the edge rows a lost node had shipped into its
    surviving neighbours' ghost regions are saved at recovery and compared
    with the replayed rows once the replay re-reaches that tick."""

    @staticmethod
    def _wrap_crash():
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 0.0009)])
        return ClusterMaster(
            GTX_780, 4, 2, make_board(), KERNEL, wrap=True, faults=plan
        )

    def test_replay_runs_the_saved_checks(self, monkeypatch):
        ran = []
        real = ClusterMaster._run_ghost_checks

        def spy(self):
            ran.extend(
                (t, lo, hi) for t, lo, hi, _ in self._ghost_checks
                if t == self.tick
            )
            real(self)

        monkeypatch.setattr(ClusterMaster, "_run_ghost_checks", spy)
        cs = self._wrap_crash()
        cs.run(10)
        # Node 1 owned rows [16, 32): node 0 held its top edge row and
        # node 2 its bottom one, both checked at the failed tick.
        assert ran == [(3, 16, 17), (3, 31, 32)]
        assert cs._ghost_checks == []
        clean, _ = fault_free(make_board(), 10, wrap=True)
        assert np.array_equal(cs.board(), clean)

    def test_corrupt_ghost_copy_is_a_mismatch(self, monkeypatch):
        real = ClusterMaster._recover

        def corrupt(self, u):
            real(self, u)
            assert self._ghost_checks, "recovery saved no ghost copies"
            self._ghost_checks[0][3][0, 0] ^= 1

        monkeypatch.setattr(ClusterMaster, "_recover", corrupt)
        cs = self._wrap_crash()
        with pytest.raises(ClusterRecoveryError) as info:
            cs.run(10)
        assert info.value.reason == "ghost-mismatch"


class TestCalmUntil:
    """Edges of ``ClusterFaultPlan.calm_until(t, members)``: the end of
    the window from ``t`` in which every query about the members has its
    fault-free answer (``t`` itself when the window is empty)."""

    MEMBERS = {0: -1.0, 1: -1.0}

    def test_fault_free_plan_is_calm_forever(self):
        assert ClusterFaultPlan().calm_until(0.5, self.MEMBERS) == math.inf

    def test_window_starting_at_t_is_not_calm(self):
        for spec in (
            Partition(((0,), (1,)), start=1.0, end=2.0),
            SlowLink(0, 1, factor=4.0, start=1.0, end=2.0),
        ):
            key = "partitions" if isinstance(spec, Partition) else "slow_links"
            plan = ClusterFaultPlan(**{key: [spec]})
            assert plan.calm_until(0.5, self.MEMBERS) == 1.0  # onset
            assert plan.calm_until(1.0, self.MEMBERS) == 1.0  # covered
            assert plan.calm_until(1.5, self.MEMBERS) == 1.5
            # A window ending at t has healed.
            assert plan.calm_until(2.0, self.MEMBERS) == math.inf

    def test_window_that_never_heals(self):
        plan = ClusterFaultPlan(slow_links=[SlowLink(0, 1, factor=2.0)])
        assert plan.calm_until(3.0, self.MEMBERS) == 3.0
        part = ClusterFaultPlan(
            partitions=[Partition(((0,), (1,)), start=1.0, end=None)]
        )
        assert part.calm_until(0.25, self.MEMBERS) == 1.0
        assert part.calm_until(7.0, self.MEMBERS) == 7.0

    def test_unit_slow_link_changes_no_answer(self):
        plan = ClusterFaultPlan(slow_links=[SlowLink(0, 1, factor=1.0)])
        assert plan.calm_until(3.0, self.MEMBERS) == math.inf

    def test_crash_bound_is_half_open(self):
        """A crash at ``c`` ends the window at ``c``: ``crash_in`` counts
        crashes in ``(since, t]``, so a query at ``c`` already sees it."""
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 2.0)])
        end = plan.calm_until(0.5, self.MEMBERS)
        assert end == 2.0
        assert plan.crash_in(1, -1.0, math.nextafter(end, 0.0)) is None
        assert plan.crash_in(1, -1.0, end) == 2.0

    def test_crash_at_or_before_admission_is_ignored(self):
        plan = ClusterFaultPlan(
            node_crashes=[NodeCrash(1, 2.0), NodeCrash(1, 5.0)],
            node_repairs=[NodeRepair(1, 3.0)],
        )
        assert plan.calm_until(3.5, {0: -1.0, 1: 2.0}) == 5.0
        assert plan.calm_until(3.5, {0: -1.0, 1: 3.5}) == 5.0
        # A node that is not a member does not bound the window.
        assert plan.calm_until(0.5, {0: -1.0}) == math.inf

    def test_member_crash_before_t_empties_the_window(self):
        plan = ClusterFaultPlan(node_crashes=[NodeCrash(1, 2.0)])
        assert plan.calm_until(2.0, self.MEMBERS) == 2.0
        assert plan.calm_until(3.0, self.MEMBERS) == 3.0

    def test_pending_link_fault_empties_the_window(self):
        plan = ClusterFaultPlan(link_faults=[LinkFault(0, 1, nth=2, count=2)])
        assert plan.calm_until(0.0, self.MEMBERS) == 0.0
        fired = [plan.link_fault_now(0, 1) for _ in range(3)]
        assert fired == [False, True, True]
        assert plan.calm_until(0.0, self.MEMBERS) == math.inf
        rate = ClusterFaultPlan(link_fault_rate=0.1)
        assert rate.calm_until(0.0, self.MEMBERS) == 0.0
