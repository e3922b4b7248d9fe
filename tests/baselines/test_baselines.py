"""Tests for the comparator baselines (Torch-like, Caffe-like, NMF-mGPU)."""

import pytest

from repro.apps.lenet import LeNetParams, MapsLeNetTrainer
from repro.apps.nmf import MapsNMF
from repro.baselines import CaffeLikeLeNet, NmfMgpu, TorchLikeLeNet
from repro.baselines.torch_like import PARAM_BYTES, lenet_compute_time
from repro.core import Scheduler
from repro.hardware import GTX_780, GTX_980, PAPER_GPUS, calibration_for
from repro.sim import SimNode

BATCH = 2048


class TestTorchLike:
    def test_param_bytes(self):
        assert PARAM_BYTES == 431_080 * 4

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            TorchLikeLeNet(GTX_780, 2, BATCH, "model")

    def test_single_gpu_matches_maps(self):
        """All frameworks call the same cuDNN routines (Fig. 11)."""
        torch_tp = TorchLikeLeNet(GTX_780, 1, BATCH, "data").throughput()
        node = SimNode(GTX_780, 1, functional=False)
        maps_tp = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(0), BATCH, mode="data"
        ).throughput()
        assert torch_tp == pytest.approx(maps_tp, rel=0.15)

    @pytest.mark.parametrize("mode", ["data", "hybrid"])
    def test_maps_scales_better(self, mode):
        torch1 = TorchLikeLeNet(GTX_780, 1, BATCH, mode).throughput()
        torch4 = TorchLikeLeNet(GTX_780, 4, BATCH, mode).throughput()
        node1 = SimNode(GTX_780, 1, functional=False)
        node4 = SimNode(GTX_780, 4, functional=False)
        maps1 = MapsLeNetTrainer(
            Scheduler(node1), LeNetParams.initialize(0), BATCH, mode=mode
        ).throughput()
        maps4 = MapsLeNetTrainer(
            Scheduler(node4), LeNetParams.initialize(0), BATCH, mode=mode
        ).throughput()
        assert maps4 / maps1 > torch4 / torch1
        assert maps4 > torch4

    def test_torch_4gpu_speedups_near_paper(self):
        data1 = TorchLikeLeNet(GTX_780, 1, BATCH, "data").throughput()
        data4 = TorchLikeLeNet(GTX_780, 4, BATCH, "data").throughput()
        hyb1 = TorchLikeLeNet(GTX_780, 1, BATCH, "hybrid").throughput()
        hyb4 = TorchLikeLeNet(GTX_780, 4, BATCH, "hybrid").throughput()
        assert data4 / data1 == pytest.approx(2.30, rel=0.15)
        assert hyb4 / hyb1 == pytest.approx(2.07, rel=0.15)

    def test_outputs_copied_to_host_each_iteration(self):
        t = TorchLikeLeNet(GTX_780, 2, BATCH, "data")
        t.measure_iteration(warmup=0, iters=2)
        d2h = [r for r in t.node.trace.memcpys() if "outputs-d2h" in r.label]
        assert len(d2h) == 4  # 2 devices x 2 iterations

    def test_updates_serialize_on_gpu0(self):
        t = TorchLikeLeNet(GTX_780, 4, BATCH, "data")
        t.measure_iteration(warmup=0, iters=1)
        updates = [r for r in t.node.trace.kernels() if "update" in r.label]
        assert len(updates) == 1
        assert updates[0].device == 0

    def test_compute_time_scales_inverse_batch(self):
        calib = calibration_for(GTX_780)
        t_full = lenet_compute_time(GTX_780, calib, 2048, False, 1)
        t_quarter = lenet_compute_time(GTX_780, calib, 512, False, 4)
        assert t_quarter < t_full / 2.5


class TestCaffeLike:
    def test_throughput_close_to_maps_single_gpu(self):
        caffe = CaffeLikeLeNet(GTX_780, BATCH).throughput()
        node = SimNode(GTX_780, 1, functional=False)
        maps = MapsLeNetTrainer(
            Scheduler(node), LeNetParams.initialize(0), BATCH, mode="data"
        ).throughput()
        assert caffe == pytest.approx(maps, rel=0.15)

    def test_faster_gpu_higher_throughput(self):
        assert (
            CaffeLikeLeNet(GTX_980, BATCH).throughput()
            > CaffeLikeLeNet(GTX_780, BATCH).throughput()
        )


class TestNmfMgpu:
    def test_single_gpu_kepler_competitive(self):
        """On Kepler the hand-tuned kernels match MAPS single-GPU at the
        paper's problem size."""
        mgpu = NmfMgpu(GTX_780, 1).throughput()
        node = SimNode(GTX_780, 1, functional=False)
        maps = MapsNMF(Scheduler(node), (16384, 4096), k=128).throughput()
        assert mgpu == pytest.approx(maps, rel=0.1)

    def test_single_gpu_maxwell_trails(self):
        """Kepler-tuned kernels lose efficiency on the GTX 980 (visible
        at the paper's problem size where kernel time dominates)."""
        mgpu = NmfMgpu(GTX_980, 1).throughput()
        node = SimNode(GTX_980, 1, functional=False)
        maps = MapsNMF(Scheduler(node), (16384, 4096), k=128).throughput()
        assert mgpu < 0.9 * maps

    @pytest.mark.parametrize("spec", PAPER_GPUS, ids=lambda s: s.name)
    def test_maps_scales_better_everywhere(self, spec):
        """At the paper's problem size (16K x 4K, k=128) MAPS wins on
        throughput and scaling on every device type (Fig. 13). At tiny
        sizes per-task overheads dominate and this need not hold."""
        mgpu1 = NmfMgpu(spec, 1).throughput()
        mgpu4 = NmfMgpu(spec, 4).throughput()
        n1 = SimNode(spec, 1, functional=False)
        n4 = SimNode(spec, 4, functional=False)
        maps1 = MapsNMF(Scheduler(n1), (16384, 4096), k=128).throughput()
        maps4 = MapsNMF(Scheduler(n4), (16384, 4096), k=128).throughput()
        assert maps4 / maps1 > mgpu4 / mgpu1
        assert maps4 > mgpu4

    def test_exchanges_are_host_staged(self):
        m = NmfMgpu(GTX_780, 4, 2048, 1024, 64)
        m.measure_iteration(warmup=0, iters=1)
        copies = m.node.trace.memcpys()
        # All mGPU inter-device traffic goes via the host (MPI).
        assert all(
            r.src < 0 or r.device < 0 for r in copies
        ), "NMF-mGPU must not use direct P2P"
        assert any("mpi-reduce" in r.label for r in m.node.trace.of_kind("host"))
