"""Tests for the NMF application (§6.2, Figs. 12-13)."""

import numpy as np
import pytest

from repro.apps.nmf import (
    MapsNMF,
    frobenius_error,
    nmf_init,
    reference_iteration,
)
from repro.core import Scheduler
from repro.hardware import GTX_780, HOST
from repro.sim import SimNode


class TestReferenceAlgorithm:
    def test_error_non_increasing(self):
        """Multiplicative updates monotonically reduce ||V - WH||."""
        v, w, h = nmf_init(64, 48, 8, seed=0)
        prev = frobenius_error(v, w, h)
        for _ in range(10):
            w, h = reference_iteration(v, w, h)
            err = frobenius_error(v, w, h)
            assert err <= prev + 1e-4
            prev = err

    def test_nonnegativity_preserved(self):
        v, w, h = nmf_init(32, 24, 4, seed=1)
        for _ in range(5):
            w, h = reference_iteration(v, w, h)
        assert (w >= 0).all() and (h >= 0).all()

    def test_exact_low_rank_recovery(self):
        """A rank-k matrix factorizes to near-zero error."""
        rng = np.random.default_rng(2)
        w_true = rng.random((48, 4)).astype(np.float32)
        h_true = rng.random((4, 32)).astype(np.float32)
        v = w_true @ h_true
        w, h = (
            rng.random((48, 4)).astype(np.float32) + 0.1,
            rng.random((4, 32)).astype(np.float32) + 0.1,
        )
        for _ in range(300):
            w, h = reference_iteration(v, w, h)
        assert frobenius_error(v, w, h) / np.linalg.norm(v) < 0.02


class TestMapsNMF:
    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    def test_matches_reference(self, num_gpus):
        v, _, _ = nmf_init(64, 32, 8, seed=5)
        node = SimNode(GTX_780, num_gpus, functional=True)
        nmf = MapsNMF(Scheduler(node), v, k=8, seed=5)
        w0, h0 = nmf.W.host.copy(), nmf.H.host.copy()
        w, h = nmf.factorize(3)
        wr, hr = w0, h0
        for _ in range(3):
            wr, hr = reference_iteration(v, wr, hr)
        assert np.allclose(w, wr, atol=1e-4)
        assert np.allclose(h, hr, atol=1e-4)

    def test_error_method(self):
        v, _, _ = nmf_init(48, 24, 4, seed=6)
        node = SimNode(GTX_780, 2, functional=True)
        nmf = MapsNMF(Scheduler(node), v, k=4, seed=6)
        nmf.factorize(2)
        err = nmf.error()
        expected = frobenius_error(v, nmf.W.host, nmf.H.host)
        assert err == pytest.approx(expected, rel=1e-4)

    def test_v_is_striped_not_replicated(self):
        """Fig. 12's property: no device holds a complete copy of V."""
        v, _, _ = nmf_init(64, 32, 8, seed=7)
        node = SimNode(GTX_780, 4, functional=True)
        nmf = MapsNMF(Scheduler(node), v, k=8)
        nmf.run_iteration()
        nmf.sched.wait_all()
        report = nmf.sched.analyzer.allocation_report()
        v_bytes = 64 * 32 * 4
        for d in range(4):
            assert report["V"][d] == v_bytes // 4

    def test_two_exchange_points_per_iteration(self):
        """§6.2: inter-GPU exchanges happen twice per iteration — the Acc
        reduce-scatter before the H update and the H all-gather after."""
        node = SimNode(GTX_780, 4, functional=False)
        nmf = MapsNMF(Scheduler(node), (512, 256), k=16)
        nmf.run_iteration()
        nmf.sched.wait_all()
        node.trace.clear()
        nmf.run_iteration()
        nmf.sched.wait_all()
        p2p = [
            r
            for r in node.trace.memcpys()
            if r.src != HOST and r.device != HOST
        ]
        exchanged = {r.label.split(":")[1] for r in p2p}
        assert "Acc" in exchanged  # reduce-scatter of the accumulator
        assert "H" in exchanged  # all-gather of the updated stripes
        # W and the large V/WH/Vt stripes never move between devices.
        assert not ({"V", "W", "WH", "Vt", "Num"} & exchanged)

    def test_acc_uses_reduce_scatter_not_host(self):
        node = SimNode(GTX_780, 4, functional=False)
        nmf = MapsNMF(Scheduler(node), (512, 256), k=16)
        nmf.run_iteration()
        nmf.sched.wait_all()
        assert any(
            "reduce-scatter:Acc" in r.label for r in node.trace.memcpys()
        )
        assert not any(
            "gather-partial:Acc" in r.label for r in node.trace.memcpys()
        )

    def test_timing_positive(self):
        node = SimNode(GTX_780, 2, functional=False)
        nmf = MapsNMF(Scheduler(node), (1024, 512), k=32)
        t = nmf.measure_iteration(warmup=1, iters=2)
        assert 0 < t < 1.0

    def test_shape_on_a_functional_node_names_the_fix(self):
        """A functional node factorizes data: given only a shape, the
        constructor says to pass the array or use a timing-only node
        instead of failing inside ``bind``."""
        node = SimNode(GTX_780, 2)
        with pytest.raises(ValueError, match="pass the matrix V.*timing-only"):
            MapsNMF(Scheduler(node), (64, 32), k=4)
