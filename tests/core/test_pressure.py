"""Graceful degradation under device-memory pressure (DESIGN.md §10).

The contract: oversubscribing device memory changes *where time goes*
(eviction traffic, out-of-core chunk pipelines), never *what is computed*.
Functional-mode results must stay bit-identical down to the point where a
single chunk's irreducible footprint exceeds capacity — and that point must
fail with a descriptive :class:`~repro.errors.CapacityError`, not a bare
out-of-memory.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.core import Grid, Matrix, Scheduler, Vector
from repro.errors import CapacityError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import histogram_containers, make_histogram_kernel
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim import DeviceFailure, FaultPlan, SimNode, TransferFault
from repro.sim.trace_export import to_chrome_trace
from repro.utils.rect import Rect

FACTORS = (0.6, 0.3, 0.1)


def capped(spec, capacity):
    return dataclasses.replace(spec, global_memory_bytes=int(capacity))


# -- Game of Life ----------------------------------------------------------------
GOL_N = 1024
GOL_ITERS = 3


def run_gol(capacity=None, n=GOL_N, iters=GOL_ITERS, faults=None, gpus=4,
            ballast=0):
    """``ballast`` bytes of foreign data occupy device 0 before the run,
    oversubscribing it alone."""
    spec = GTX_780 if capacity is None else capped(GTX_780, capacity)
    board = np.random.default_rng(7).integers(0, 2, (n, n), dtype=np.uint8)
    node = SimNode(spec, gpus, functional=True, faults=faults)
    if ballast:
        node.devices[0].memory.allocate(
            0, Rect.from_shape((int(ballast),)), np.uint8
        )
    sched = Scheduler(node)
    a = Matrix(n, n, np.uint8, "A").bind(board.copy())
    b = Matrix(n, n, np.uint8, "B").bind(np.zeros_like(board))
    kernel = make_gol_kernel()
    ca, cb = gol_containers(a, b), gol_containers(b, a)
    sched.analyze_call(kernel, *ca)
    sched.analyze_call(kernel, *cb)
    src, dst = a, b
    for _ in range(iters):
        sched.invoke(kernel, *(ca if src is a else cb))
        sched.gather(dst)
        src, dst = dst, src
    t = sched.wait_all()
    return src.host.copy(), t, sched, node


def gol_expected(n=GOL_N, iters=GOL_ITERS):
    board = np.random.default_rng(7).integers(0, 2, (n, n), dtype=np.uint8)
    for _ in range(iters):
        board = gol_reference_step(board)
    return board


@pytest.fixture(scope="module")
def gol_ample():
    out, t, sched, node = run_gol()
    assert np.array_equal(out, gol_expected())
    ws = max(r["peak"] for r in node.memory_report().values())
    return out, t, ws, node


class TestGolUnderPressure:
    @pytest.mark.parametrize("factor", FACTORS)
    def test_bit_identical(self, gol_ample, factor):
        ref, _, ws, _ = gol_ample
        out, _, sched, node = run_gol(capacity=ws * factor)
        assert np.array_equal(out, ref)
        # Degradation actually engaged: the board cannot be in-core.
        assert node.trace.matching("evict:") or node.trace.matching("#chunk")
        assert not sched._pressure.live_pools  # pools self-released

    def test_pressure_costs_time_not_correctness(self, gol_ample):
        _, t_ample, ws, _ = gol_ample
        _, t_03, _, _ = run_gol(capacity=ws * 0.3)
        _, t_01, _, _ = run_gol(capacity=ws * 0.1)
        assert t_ample < t_03 < t_01

    def test_ample_capacity_fast_path_untouched(self, gol_ample):
        *_, node = gol_ample
        assert not node.trace.matching("evict:")
        assert not node.trace.matching("#chunk")
        assert not node.trace.matching("salvage:")

    def test_deterministic_replay(self, gol_ample):
        _, _, ws, _ = gol_ample
        out1, t1, _, node1 = run_gol(capacity=ws * 0.3)
        out2, t2, _, node2 = run_gol(capacity=ws * 0.3)
        assert np.array_equal(out1, out2)
        assert t1 == t2

        def normalized(node):
            # Kernel names embed a process-global task uid ("#12"); strip
            # it so labels compare across runs.
            return [
                (re.sub(r"#\d+", "#", r.label), r.kind, r.start, r.end)
                for r in node.trace
            ]

        assert normalized(node1) == normalized(node2)

    def test_trace_and_chrome_export_show_degradation(self, gol_ample):
        _, _, ws, _ = gol_ample
        _, _, _, node = run_gol(capacity=ws * 0.6)
        evicts = node.trace.matching("evict:")
        chunks = [r for r in node.trace.kernels() if "#chunk" in r.label]
        assert evicts and chunks
        obj = to_chrome_trace(node.trace)
        names = {e.get("name", "") for e in obj["traceEvents"]}
        assert any("evict:" in nm for nm in names)
        assert any("#chunk" in nm for nm in names)
        json.dumps(obj)  # stays serializable

    def test_chunk_copyout_overlaps_next_compute(self, gol_ample):
        # The point of the dual-slot pipeline: with >= 2 chunks per device,
        # some chunk's copy-out overlaps a later chunk's kernel in
        # simulated time.
        _, _, ws, _ = gol_ample
        _, _, _, node = run_gol(capacity=ws * 0.1)
        outs = [r for r in node.trace.memcpys() if "chunk-out:" in r.label]
        kernels = [r for r in node.trace.kernels() if "#chunk" in r.label]
        assert node.trace.any_overlap(outs, kernels)


class TestPressureWithFaults:
    N = 256
    ITERS = 4

    def _baseline(self):
        out, t, _, node = run_gol(n=self.N, iters=self.ITERS)
        ws = max(r["peak"] for r in node.memory_report().values())
        return out, t, ws

    def test_device_failure_while_pressured(self):
        ref, _, ws = self._baseline()
        _, t_p, _, _ = run_gol(capacity=ws * 0.6, n=self.N, iters=self.ITERS)
        fp = FaultPlan(device_failures=[DeviceFailure(2, t_p * 0.4)])
        out, _, sched, _ = run_gol(
            capacity=ws * 0.6, n=self.N, iters=self.ITERS, faults=fp
        )
        assert np.array_equal(out, ref)
        assert sched.alive_devices == (0, 1, 3)
        assert not sched._pressure.live_pools  # no leaked staging pools

    def test_device_failure_mid_chunk_sequence(self):
        # 0.3x leaves every device chunked from the first invoke; the
        # failure lands inside a chunk pipeline, whose staging pools must
        # be reclaimed by retirement (their deferred free died with the
        # stream purge).
        ref, _, ws = self._baseline()
        _, t_p, _, _ = run_gol(capacity=ws * 0.3, n=self.N, iters=self.ITERS)
        fp = FaultPlan(device_failures=[DeviceFailure(1, t_p * 0.35)])
        out, _, sched, node = run_gol(
            capacity=ws * 0.3, n=self.N, iters=self.ITERS, faults=fp
        )
        assert np.array_equal(out, ref)
        assert sched.alive_devices == (0, 2, 3)
        assert not sched._pressure.live_pools
        # Accounting stayed coherent on the survivors: nothing leaked.
        for d in sched.alive_devices:
            mem = node.devices[d].memory
            assert 0 <= mem.used <= mem.capacity

    def test_transient_transfer_faults_during_chunked_replay(self):
        from repro.hardware.topology import HOST

        ref, _, ws = self._baseline()
        fp = FaultPlan(transfer_faults=[
            TransferFault(src=HOST, dst=0, nth=3, count=2),
            TransferFault(src=HOST, dst=2, nth=5, count=1),
        ])
        out, _, _, node = run_gol(
            capacity=ws * 0.3, n=self.N, iters=self.ITERS, faults=fp
        )
        assert np.array_equal(out, ref)
        assert fp.transfer_faults_fired >= 3

    def test_chunk_in_copy_rerouted_to_another_replica(self):
        # Only device 0 is oversubscribed, so it chunks while device 1
        # runs in-core. Device 0's chunk-in copies then source halo rows
        # from device 1's fresh replica; faulting the first one re-sources
        # it from the host, whose payload must still fill the same staging
        # slab.
        from repro.hardware.topology import HOST

        _, _, _, node = run_gol(n=self.N, iters=self.ITERS, gpus=2)
        ws = max(r["peak"] for r in node.memory_report().values())
        fp = FaultPlan(transfer_faults=[TransferFault(src=1, dst=0, nth=1)])
        out, _, sched, node = run_gol(
            capacity=ws, n=self.N, iters=self.ITERS, faults=fp, gpus=2,
            ballast=ws // 2,
        )
        assert np.array_equal(out, gol_expected(self.N, self.ITERS))
        assert fp.transfer_faults_fired == 1
        retried = node.trace.matching("retry:chunk-in:")
        assert len(retried) == 1 and retried[0].src == HOST
        assert not sched._pressure.live_pools


# -- Histogram (duplicated output stays resident across chunks) ------------------
class TestHistogramUnderPressure:
    N = 1024

    def _run(self, capacity=None):
        spec = GTX_780 if capacity is None else capped(GTX_780, capacity)
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 32, (self.N, self.N)).astype(np.int32)
        node = SimNode(spec, 4, functional=True)
        sched = Scheduler(node)
        image = Matrix(self.N, self.N, np.int32, "img").bind(pixels.copy())
        hist = Vector(32, np.int64, "h").bind(np.zeros(32, np.int64))
        kernel = make_histogram_kernel("maps")
        containers = histogram_containers(image, hist)
        grid = Grid(pixels.shape)
        sched.analyze_call(kernel, *containers, grid=grid)
        sched.invoke(kernel, *containers, grid=grid)
        sched.gather(hist)
        sched.wait_all()
        return pixels, hist.host.copy(), node

    @pytest.mark.parametrize("factor", FACTORS)
    def test_bit_identical(self, factor):
        pixels, ref, node = self._run()
        ws = max(r["peak"] for r in node.memory_report().values())
        assert (ref == np.bincount(pixels.reshape(-1), minlength=32)).all()
        _, out, pnode = self._run(capacity=ws * factor)
        assert (out == ref).all()
        assert pnode.trace.matching("#chunk")


# -- Unmodified CUBLAS SGEMM (irreducible persistent input) ----------------------
class TestSgemmUnderPressure:
    N = 128

    def _run(self, capacity=None):
        spec = GTX_780 if capacity is None else capped(GTX_780, capacity)
        rng = np.random.default_rng(5)
        ha = rng.standard_normal((self.N, self.N)).astype(np.float32)
        hb = rng.standard_normal((self.N, self.N)).astype(np.float32)
        node = SimNode(spec, 2, functional=True)
        sched = Scheduler(node)
        a = Matrix(self.N, self.N, np.float32, "A").bind(ha.copy())
        b = Matrix(self.N, self.N, np.float32, "B").bind(hb.copy())
        c = Matrix(self.N, self.N, np.float32, "C").bind(
            np.zeros((self.N, self.N), np.float32)
        )
        gemm = make_sgemm_routine()
        args = sgemm_containers(a, b, c)
        sched.analyze_call(gemm, *args)
        sched.invoke_unmodified(gemm, *args)
        sched.gather(c)
        sched.wait_all()
        return ha, hb, c.host.copy(), node

    def test_chunked_at_0_6x_is_bit_identical(self):
        ha, hb, ref, node = self._run()
        assert np.allclose(ref, ha @ hb, atol=1e-4)
        ws = max(r["peak"] for r in node.memory_report().values())
        _, _, out, pnode = self._run(capacity=ws * 0.6)
        assert np.array_equal(out, ref)
        assert pnode.trace.matching("#chunk")

    @pytest.mark.parametrize("factor", (0.3, 0.1))
    def test_irreducible_footprint_raises_capacity_error(self, factor):
        # Block2DTransposed makes every chunk need *all* of B: below B's
        # size no chunking helps, and the typed error must say so.
        *_, node = self._run()
        ws = max(r["peak"] for r in node.memory_report().values())
        with pytest.raises(CapacityError) as ei:
            self._run(capacity=ws * factor)
        err = ei.value
        assert err.datum == "B"
        assert "B" in str(err)
        assert err.required > err.capacity > 0
        assert err.device is not None
