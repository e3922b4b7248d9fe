"""Tests for the §8 cluster extension: network model + distributed stencil."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    ClusterNetwork,
    NetworkCalibration,
)
from repro.errors import SchedulingError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import gol_reference_step, make_gol_kernel


def ref_step_rowwrap(x):
    """Rows wrap (across the node ring); columns are ZERO."""
    p = np.pad(x, ((1, 1), (1, 1)))
    p[0, 1:-1] = x[-1]
    p[-1, 1:-1] = x[0]
    n = sum(
        p[1 + dy : 1 + dy + x.shape[0], 1 + dx : 1 + dx + x.shape[1]]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dy, dx) != (0, 0)
    )
    return ((n == 3) | ((x == 1) & (n == 2))).astype(x.dtype)


class TestClusterNetwork:
    def test_latency_plus_serialization(self):
        net = ClusterNetwork(2, NetworkCalibration(bandwidth=1e9, latency=1e-5))
        t = net.transfer(0, 1, 1_000_000, ready=0.0)
        assert t == pytest.approx(1e-5 + 1e-3)

    def test_same_node_is_free(self):
        net = ClusterNetwork(2)
        assert net.transfer(0, 0, 1 << 20, ready=5.0) == 5.0

    def test_egress_serializes(self):
        net = ClusterNetwork(3, NetworkCalibration(bandwidth=1e9, latency=0.0))
        t1 = net.transfer(0, 1, 1_000_000, ready=0.0)
        t2 = net.transfer(0, 2, 1_000_000, ready=0.0)
        assert t2 == pytest.approx(t1 + 1e-3)

    def test_disjoint_pairs_parallel(self):
        net = ClusterNetwork(4, NetworkCalibration(bandwidth=1e9, latency=0.0))
        t1 = net.transfer(0, 1, 1_000_000, ready=0.0)
        t2 = net.transfer(2, 3, 1_000_000, ready=0.0)
        assert t1 == pytest.approx(t2)

    def test_bad_nodes(self):
        with pytest.raises(ValueError):
            ClusterNetwork(0)
        with pytest.raises(ValueError):
            ClusterNetwork(2).transfer(0, 5, 1, 0.0)

    def test_latency_dominates_small_messages(self):
        """§8's premise: inter-node latency >> intra-node (8 us)."""
        assert NetworkCalibration().latency > 2 * 8e-6


class TestClusterStencil:
    @pytest.mark.parametrize("num_nodes", [1, 2, 4])
    @pytest.mark.parametrize("gpus", [1, 2])
    def test_zero_boundary_matches_reference(self, num_nodes, gpus):
        rng = np.random.default_rng(1)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        cs = ClusterMaster(
            GTX_780, num_nodes, gpus, board, make_gol_kernel("maps")
        )
        cs.run(4)
        ref = board.copy()
        for _ in range(4):
            ref = gol_reference_step(ref, wrap=False)
        assert (cs.board() == ref).all()

    @pytest.mark.parametrize("num_nodes", [1, 2, 4])
    def test_row_wrap_matches_reference(self, num_nodes):
        rng = np.random.default_rng(2)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        cs = ClusterMaster(
            GTX_780, num_nodes, 2, board, make_gol_kernel("maps"), wrap=True
        )
        cs.run(5)
        ref = board.copy()
        for _ in range(5):
            ref = ref_step_rowwrap(ref)
        assert (cs.board() == ref).all()

    def test_results_identical_across_cluster_sizes(self):
        rng = np.random.default_rng(3)
        board = (rng.random((48, 12)) < 0.35).astype(np.int32)
        outs = []
        for nodes in (1, 2, 4):
            cs = ClusterMaster(
                GTX_780, nodes, 2, board, make_gol_kernel("maps")
            )
            cs.run(6)
            outs.append(cs.board())
        assert (outs[0] == outs[1]).all()
        assert (outs[0] == outs[2]).all()

    def test_rejects_indivisible_board(self):
        with pytest.raises(SchedulingError):
            ClusterMaster(
                GTX_780, 3, 1, np.zeros((32, 8), np.int32),
                make_gol_kernel("maps"),
            )

    def test_rejects_thin_slabs(self):
        with pytest.raises(SchedulingError):
            ClusterMaster(
                GTX_780, 8, 1, np.zeros((8, 8), np.int32),
                make_gol_kernel("maps"),
            )

    def test_timing_mode_needs_no_board(self):
        cs = ClusterMaster(
            GTX_780, 2, 2, (512, 256), make_gol_kernel("maps"),
            functional=False,
        )
        t = cs.run(3)
        assert t > 0
        with pytest.raises(SchedulingError):
            cs.board()

    def test_functional_mode_needs_board(self):
        with pytest.raises(SchedulingError):
            ClusterMaster(
                GTX_780, 2, 2, (512, 256), make_gol_kernel("maps"),
                functional=True,
            )

    def test_network_latency_slows_cluster_ticks(self):
        slow = NetworkCalibration(bandwidth=1e9, latency=1e-3)
        fast = NetworkCalibration(bandwidth=10e9, latency=1e-6)
        times = {}
        for name, cal in (("slow", slow), ("fast", fast)):
            cs = ClusterMaster(
                GTX_780, 4, 2, (1024, 512), make_gol_kernel("maps"),
                functional=False, network=cal,
            )
            cs.run(2)
            t0 = cs.time
            cs.run(4)
            times[name] = (cs.time - t0) / 4
        assert times["slow"] > times["fast"] + 0.9e-3


class TestClusterNetworkHygiene:
    """Satellite: transfer-path validation + introspection API."""

    def test_rejects_negative_nbytes(self):
        net = ClusterNetwork(2)
        with pytest.raises(ValueError):
            net.transfer(0, 1, -1, ready=0.0)

    def test_zero_nbytes_costs_latency_only(self):
        cal = NetworkCalibration(bandwidth=1e9, latency=1e-5)
        net = ClusterNetwork(2, cal)
        assert net.transfer(0, 1, 0, ready=0.0) == pytest.approx(1e-5)

    def test_rejects_bad_factor(self):
        net = ClusterNetwork(2)
        with pytest.raises(ValueError):
            net.transfer(0, 1, 100, ready=0.0, factor=0.5)

    def test_slow_factor_stretches_duration(self):
        cal = NetworkCalibration(bandwidth=1e9, latency=0.0)
        net = ClusterNetwork(2, cal)
        t1 = net.transfer(0, 1, 1_000_000, ready=0.0)
        net.reset()
        t2 = net.transfer(0, 1, 1_000_000, ready=0.0, factor=3.0)
        assert t2 == pytest.approx(3 * t1)

    def test_per_link_counters(self):
        net = ClusterNetwork(3)
        net.transfer(0, 1, 1000, ready=0.0)
        net.transfer(0, 1, 2000, ready=0.0)
        net.transfer(1, 2, 500, ready=0.0)
        assert net.transfers(0, 1) == 2
        assert net.link_bytes[(0, 1)] == 3000
        assert net.transfers(1, 2) == 1
        assert net.transfers(2, 0) == 0

    def test_busy_until_tracks_egress_and_ingress(self):
        cal = NetworkCalibration(bandwidth=1e9, latency=0.0)
        net = ClusterNetwork(3, cal)
        t = net.transfer(0, 1, 1_000_000, ready=0.0)
        assert net.busy_until(0) == pytest.approx(t)
        assert net.busy_until(1) == pytest.approx(t)
        assert net.busy_until(2) == 0.0
        with pytest.raises(ValueError):
            net.busy_until(7)

    def test_reset_clears_occupancy_and_counters(self):
        net = ClusterNetwork(2)
        net.transfer(0, 1, 1 << 20, ready=0.0)
        net.reset()
        assert net.busy_until(0) == 0.0
        assert net.transfers(0, 1) == 0
        assert net.link_bytes == {}


class TestNonUniformTicks:
    """Satellite: odd tick counts land on buffer 1 — board() must read
    the buffer the last tick wrote, in every mode."""

    @pytest.mark.parametrize("ticks", [1, 3, 7])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_odd_ticks_match_reference(self, ticks, wrap):
        rng = np.random.default_rng(7)
        board = (rng.random((32, 16)) < 0.4).astype(np.int32)
        cs = ClusterMaster(
            GTX_780, 2, 2, board, make_gol_kernel("maps"), wrap=wrap
        )
        cs.run(ticks)
        ref = board.copy()
        for _ in range(ticks):
            ref = (
                ref_step_rowwrap(ref)
                if wrap
                else gol_reference_step(ref, wrap=False)
            )
        assert (cs.board() == ref).all()

    def test_single_wrapped_node_odd_ticks(self):
        """One node with wrap: both edges self-exchange locally."""
        rng = np.random.default_rng(8)
        board = (rng.random((16, 12)) < 0.4).astype(np.int32)
        cs = ClusterMaster(
            GTX_780, 1, 2, board, make_gol_kernel("maps"), wrap=True
        )
        cs.run(3)
        ref = board.copy()
        for _ in range(3):
            ref = ref_step_rowwrap(ref)
        assert (cs.board() == ref).all()


class TestTimingFunctionalParity:
    """Satellite: timing-only mode issues the identical command and
    transfer schedule as functional mode, so simulated times match."""

    @pytest.mark.parametrize("ticks", [3, 4])
    def test_simulated_time_parity(self, ticks):
        rng = np.random.default_rng(9)
        board = (rng.random((64, 32)) < 0.4).astype(np.int32)
        f = ClusterMaster(GTX_780, 4, 2, board, make_gol_kernel("maps"))
        t = ClusterMaster(
            GTX_780, 4, 2, (64, 32), make_gol_kernel("maps"),
            functional=False,
        )
        assert f.run(ticks) == t.run(ticks)
        assert f.time == t.time


class TestUnarmedPlan:
    """``faults=None`` is shorthand for an empty plan with checkpoints
    off: the master runs one tick path, and on that plan it must be the
    plain fault-intolerant schedule, message for message."""

    @staticmethod
    def observe(cs):
        return {
            "time": cs.time,
            "node_times": {n: ag.node.time for n, ag in cs.agents.items()},
            "link_bytes": dict(cs.network.link_bytes),
            "link_transfers": dict(cs.network.link_transfers),
            "log": [(e, type(e.error).__name__) for e in cs.log],
            "board": cs.board().tolist() if cs.functional else None,
        }

    @pytest.mark.parametrize("functional", [True, False])
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("num_nodes", [1, 2, 4, 8])
    def test_none_is_the_empty_plan(self, num_nodes, wrap, functional):
        rng = np.random.default_rng(4)
        board = (
            (rng.random((32, 16)) < 0.4).astype(np.int32)
            if functional
            else (256, 128)
        )
        runs = []
        for faults in (None, ClusterFaultPlan(checkpoint_interval=None)):
            cs = ClusterMaster(
                GTX_780, num_nodes, 2, board, make_gol_kernel("maps"),
                functional=functional, wrap=wrap, faults=faults,
            )
            cs.run(5)
            assert cs.faults.checkpoints_taken == 0
            assert cs.monitor.checkpoints == []
            runs.append(self.observe(cs))
        assert runs[0] == runs[1]
        assert runs[0]["log"] == []


class TestBoundedState:
    def test_task_handles_stay_bounded(self):
        """Every tick invokes on every agent; ``wait_all`` drops the
        completed handles, so none piles up over a long run."""
        master = ClusterMaster(
            GTX_780, 2, 2, (64, 64), make_gol_kernel("maps"),
            functional=False,
        )
        master.run(300)
        for ag in master.agents.values():
            assert len(ag.sched.handles) <= 2
