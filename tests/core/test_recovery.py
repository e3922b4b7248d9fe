"""Scheduler fault recovery (DESIGN.md §8): bit-identical results under
injected faults, retry routing, device retirement and failure modes.

The recovery contract: an application that keeps a host checkpoint (a
``gather`` per step) survives any sequence of permanent device failures
down to one device, with results bit-identical to the fault-free run.
Without surviving replicas, recovery reports
:class:`~repro.errors.UnrecoverableError` instead of corrupting data.
"""

import numpy as np
import pytest

from repro.core import Grid, Kernel, Matrix, Scheduler, Vector
from repro.errors import UnrecoverableError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import histogram_containers, make_histogram_kernel
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.patterns import Block1D, InjectiveStriped
from repro.sim import (
    AllocFailure,
    DeviceFailure,
    FaultPlan,
    SimNode,
    Straggler,
    TransferFault,
)

N = 64
ITERS = 6


def run_gol(faults=None, checkpoint=True, plan_cache=True, seed=7):
    rng = np.random.default_rng(seed)
    board = rng.integers(0, 2, (N, N), dtype=np.uint8)
    node = SimNode(GTX_780, 4, functional=True, faults=faults)
    sched = Scheduler(node, plan_cache=plan_cache)
    a = Matrix(N, N, np.uint8, "A").bind(board.copy())
    b = Matrix(N, N, np.uint8, "B").bind(np.zeros_like(board))
    kernel = make_gol_kernel()
    ca, cb = gol_containers(a, b), gol_containers(b, a)
    sched.analyze_call(kernel, *ca)
    sched.analyze_call(kernel, *cb)
    src, dst = a, b
    for _ in range(ITERS):
        sched.invoke(kernel, *(ca if src is a else cb))
        if checkpoint:
            sched.gather(dst)
        src, dst = dst, src
    t = sched.wait_all()
    if not checkpoint:
        sched.gather(src)
    return src.host.copy(), t, sched, node


def gol_expected(seed=7):
    board = np.random.default_rng(seed).integers(0, 2, (N, N), dtype=np.uint8)
    for _ in range(ITERS):
        board = gol_reference_step(board)
    return board


@pytest.fixture(scope="module")
def gol_baseline():
    out, t, _, _ = run_gol()
    assert np.array_equal(out, gol_expected())
    return out, t


class TestPermanentFailure:
    def test_gol_bit_identical_after_mid_run_failure(self, gol_baseline):
        ref, t0 = gol_baseline
        fp = FaultPlan(device_failures=[DeviceFailure(2, t0 * 0.4)])
        out, t1, sched, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert sched.alive_devices == (0, 1, 3)
        assert t1 > t0  # recovery costs simulated time, never correctness

    def test_gol_degrades_to_single_device(self, gol_baseline):
        ref, t0 = gol_baseline
        fp = FaultPlan(device_failures=[
            DeviceFailure(0, t0 * 0.2),
            DeviceFailure(1, t0 * 0.4),
            DeviceFailure(3, t0 * 0.6),
        ])
        out, _, sched, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert sched.alive_devices == (2,)

    def test_all_devices_dead_is_unrecoverable(self, gol_baseline):
        _, t0 = gol_baseline
        fp = FaultPlan(
            device_failures=[DeviceFailure(d, t0 * 0.3) for d in range(4)]
        )
        with pytest.raises(UnrecoverableError, match="no devices"):
            run_gol(faults=fp)

    def test_histogram_identical_after_failure(self):
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 32, (N, N)).astype(np.int32)

        def run(faults=None):
            node = SimNode(GTX_780, 4, functional=True, faults=faults)
            sched = Scheduler(node)
            image = Matrix(N, N, np.int32, "img").bind(pixels.copy())
            hist = Vector(32, np.int64, "h").bind(np.zeros(32, np.int64))
            kernel = make_histogram_kernel("maps")
            containers = histogram_containers(image, hist)
            grid = Grid(pixels.shape)
            sched.analyze_call(kernel, *containers, grid=grid)
            sched.invoke(kernel, *containers, grid=grid)
            sched.gather(hist)
            return hist.host.copy(), sched.wait_all()

        ref, t0 = run()
        assert (ref == np.bincount(pixels.reshape(-1), minlength=32)).all()
        # Kill a device while its partial-histogram kernel is in flight.
        fp = FaultPlan(device_failures=[DeviceFailure(1, t0 * 0.3)])
        out, _ = run(fp)
        assert (out == ref).all()

    def test_sgemm_bit_identical_after_failure(self):
        rng = np.random.default_rng(5)
        ha = rng.standard_normal((N, 48)).astype(np.float32)
        hb = rng.standard_normal((48, 32)).astype(np.float32)

        def run(faults=None):
            node = SimNode(GTX_780, 4, functional=True, faults=faults)
            sched = Scheduler(node)
            a = Matrix(N, 48, np.float32, "A").bind(ha.copy())
            b = Matrix(48, 32, np.float32, "B").bind(hb.copy())
            c = Matrix(N, 32, np.float32, "C").bind(
                np.zeros((N, 32), np.float32)
            )
            gemm = make_sgemm_routine()
            args = sgemm_containers(a, b, c)
            sched.analyze_call(gemm, *args)
            sched.invoke_unmodified(gemm, *args)
            sched.gather(c)
            return c.host.copy(), sched.wait_all()

        ref, t0 = run()
        assert np.allclose(ref, ha @ hb, atol=1e-4)
        fp = FaultPlan(device_failures=[DeviceFailure(2, t0 * 0.4)])
        out, _ = run(fp)
        assert np.array_equal(out, ref)

    def test_plans_over_dead_device_are_invalidated(self, gol_baseline):
        _, t0 = gol_baseline
        fp = FaultPlan(device_failures=[DeviceFailure(2, t0 * 0.4)])
        _, _, sched, _ = run_gol(faults=fp)
        for plan in sched.plans._plans.values():
            assert 2 not in plan.active
            assert set(plan.active) <= set(sched.alive_devices)

    def test_no_checkpoint_and_lost_stripe_is_unrecoverable(self, gol_baseline):
        _, t0 = gol_baseline
        # Without per-step gathers the only replica of an iteration's
        # output is the per-device stripes; killing a device mid-sequence
        # loses its stripe of a *completed* iteration, which recovery
        # correctly refuses to invent.
        fp = FaultPlan(device_failures=[DeviceFailure(2, t0 * 0.5)])
        with pytest.raises(UnrecoverableError):
            run_gol(faults=fp, checkpoint=False)


class TestTransientFaults:
    def test_retry_reroutes_around_permanently_bad_link(self):
        # Device 1 needs device 0's stripe; the 0->1 link drops every
        # attempt. The retry path must fall back to the host replica
        # (created by the gather) — same-route retries alone would
        # exhaust max_retries.
        fp = FaultPlan(
            transfer_faults=[TransferFault(src=0, dst=1, nth=1, count=10**6)]
        )
        node = SimNode(GTX_780, 2, functional=True, faults=fp)
        sched = Scheduler(node)
        n = 64
        v = Vector(n, np.float32, "v").bind(np.zeros(n, np.float32))
        out = Vector(n, np.float32, "out").bind(np.zeros(n, np.float32))

        def fill(ctx):
            dst, = ctx.views
            dst.write(np.arange(dst.array.shape[0], dtype=np.float32))

        def csum(ctx):
            src, dst = ctx.views
            dst.write(np.full(dst.array.shape, src.array.sum(), np.float32))

        grid = Grid((n,), block0=1)
        k1 = Kernel("fill", func=fill)
        k2 = Kernel("sum", func=csum)
        args2 = (Block1D(v), InjectiveStriped(out))
        sched.analyze_call(k1, InjectiveStriped(v), grid=grid)
        sched.analyze_call(k2, *args2, grid=grid)
        sched.invoke(k1, InjectiveStriped(v), grid=grid)
        sched.gather(v)  # host replica = the alternate route
        sched.invoke(k2, *args2, grid=grid)
        sched.gather(out)
        # Each device wrote a stripe-local arange into its half.
        ref = np.concatenate([np.arange(n // 2, dtype=np.float32)] * 2)
        assert (v.host == ref).all()
        assert (out.host == ref.sum()).all()
        assert fp.transfer_faults_fired >= 1

    def test_same_route_retry_pays_backoff(self, gol_baseline):
        ref, t0 = gol_baseline
        fp = FaultPlan(transfer_faults=[TransferFault(nth=3, count=2)])
        out, t1, _, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert fp.transfer_faults_fired == 2
        assert t1 >= t0

    def test_random_transient_faults_never_change_results(self, gol_baseline):
        ref, _ = gol_baseline
        fp = FaultPlan(seed=3, transfer_fault_rate=0.05)
        out, _, _, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert fp.transfer_faults_fired > 0

    def test_exhausted_retries_raise_unrecoverable(self):
        # Every host->device transfer faults forever and there is no
        # alternate replica of freshly-bound host data.
        fp = FaultPlan(transfer_faults=[TransferFault(nth=1, count=10**6)])
        fp.max_retries = 3
        node = SimNode(GTX_780, 1, functional=True, faults=fp)
        sched = Scheduler(node)
        n = 16
        v = Vector(n, np.float32, "v").bind(np.ones(n, np.float32))
        out = Vector(n, np.float32, "o").bind(np.zeros(n, np.float32))

        def double(ctx):
            src, dst = ctx.views
            dst.write(src.array * 2.0)

        k = Kernel("double", func=double)
        grid = Grid((n,), block0=1)
        args = (Block1D(v), InjectiveStriped(out))
        sched.analyze_call(k, *args, grid=grid)
        sched.invoke(k, *args, grid=grid)
        with pytest.raises(UnrecoverableError, match="retries"):
            sched.wait_all()


class TestAllocationFailures:
    def test_injected_alloc_failure_retires_device(self, gol_baseline):
        ref, _ = gol_baseline
        fp = FaultPlan(alloc_failures=[AllocFailure(1, 1)])
        out, _, sched, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert 1 not in sched.alive_devices
        assert fp.alloc_faults_fired == 1

    def test_cascading_alloc_failures(self, gol_baseline):
        ref, _ = gol_baseline
        fp = FaultPlan(
            alloc_failures=[AllocFailure(1, 1), AllocFailure(2, 1)]
        )
        out, _, sched, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert sched.alive_devices == (0, 3)


class TestStragglers:
    def test_straggler_changes_time_not_results(self, gol_baseline):
        ref, t0 = gol_baseline
        fp = FaultPlan(
            stragglers=[Straggler(0, compute_factor=3.0, bandwidth_factor=2.0)]
        )
        out, t1, _, _ = run_gol(faults=fp)
        assert np.array_equal(out, ref)
        assert t1 > t0

    def test_plan_cache_off_parity_under_straggler(self):
        # The plan cache must stay a pure host-side optimization even when
        # fault handling stretches the timeline.
        def fp():
            return FaultPlan(stragglers=[Straggler(1, 2.5, 1.5)])

        out_c, t_c, _, node_c = run_gol(faults=fp(), plan_cache=True)
        out_u, t_u, _, node_u = run_gol(faults=fp(), plan_cache=False)
        assert np.array_equal(out_c, out_u)
        assert t_c == t_u
        assert (
            node_c.engine.commands_executed == node_u.engine.commands_executed
        )


class TestDeterminism:
    def test_identical_plans_replay_identically(self, gol_baseline):
        ref, t0 = gol_baseline

        def plan():
            return FaultPlan(
                seed=3,
                transfer_fault_rate=0.05,
                device_failures=[DeviceFailure(2, t0 * 0.4)],
            )

        o1, t1, _, _ = run_gol(faults=plan())
        o2, t2, _, _ = run_gol(faults=plan())
        assert np.array_equal(o1, o2)
        assert t1 == t2
        assert np.array_equal(o1, ref)


class TestDataLoss:
    @staticmethod
    def _fill_striped(n=32):
        node = SimNode(GTX_780, 2, functional=True, faults=FaultPlan())
        sched = Scheduler(node)
        v = Vector(n, np.float32, "v").bind(np.zeros(n, np.float32))

        def fill(ctx):
            dst, = ctx.views
            dst.write(np.ones(dst.array.shape, np.float32))

        k = Kernel("fill", func=fill)
        grid = Grid((n,), block0=1)
        sched.analyze_call(k, InjectiveStriped(v), grid=grid)
        h = sched.invoke(k, InjectiveStriped(v), grid=grid)
        return node, sched, v, h

    def test_lost_stripe_recomputed_from_logged_producer(self):
        # wait(handle) keeps the latest producer of each datum in the
        # submission log, so when device 1's stripe dies with it, recovery
        # re-runs the logged producer task and the gather still lands
        # complete data on the host.
        node, sched, v, h = self._fill_striped()
        t = sched.wait(h)
        node.retire_device(1, t)
        sched.gather_async(v)
        sched.wait_all()
        assert (v.host == 1.0).all()
        assert sched.alive_devices == (0,)

    def test_lost_only_replica_is_unrecoverable(self):
        # A fault-free wait_all prunes the log: afterwards the framework
        # has no record left of how v was produced. Device 1 then dies,
        # taking the only replica of its stripe — recovery must refuse.
        node, sched, v, _ = self._fill_striped()
        t = sched.wait_all()
        node.retire_device(1, t)
        sched.gather_async(v)
        with pytest.raises(UnrecoverableError):
            sched.wait_all()
