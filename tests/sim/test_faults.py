"""Unit tests for the fault-injection layer (FaultPlan + engine hooks).

Scheduler-level recovery is covered by tests/core/test_recovery.py; here
we test the plan's own semantics and the engine surfacing typed faults.
"""

import random
import re

import numpy as np
import pytest

from repro.core import Matrix, Scheduler, Vector
from repro.errors import AllocationError, DeviceFault, TransientTransferError
from repro.hardware import GTX_780, HOST
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.kernels.histogram import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
)
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim import (
    AllocFailure,
    DeviceFailure,
    FaultPlan,
    SimNode,
    Straggler,
    TransferFault,
)


class TestFaultPlan:
    def test_failure_times_keeps_earliest(self):
        fp = FaultPlan(device_failures=[
            DeviceFailure(1, 2e-3), DeviceFailure(1, 1e-3),
            DeviceFailure(0, 5e-3),
        ])
        assert fp.failure_times() == {1: 1e-3, 0: 5e-3}

    def test_straggler_factors_default_to_one(self):
        fp = FaultPlan(stragglers=[Straggler(2, 3.0, 1.5)])
        assert fp.compute_factor(2) == 3.0
        assert fp.compute_factor(0) == 1.0
        assert fp.transfer_factor(2, HOST) == 1.5
        assert fp.transfer_factor(HOST, 2) == 1.5  # worse endpoint wins
        assert fp.transfer_factor(0, 1) == 1.0

    def test_straggler_factors_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan(stragglers=[Straggler(0, compute_factor=0.5)])

    def test_targeted_transfer_fault_matches_nth_and_count(self):
        fp = FaultPlan(transfer_faults=[TransferFault(nth=2, count=2)])
        fired = [fp.transfer_faults_now(0, 1) for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert fp.transfer_faults_fired == 2

    def test_specs_sharing_a_link_advance_its_count_once(self):
        # Regression: each spec on (0, 1) used to advance the shared
        # count, so the nth=3 spec saw counts 2, 4, ... and never fired.
        fp = FaultPlan(transfer_faults=[
            TransferFault(0, 1, nth=1), TransferFault(0, 1, nth=3),
        ])
        fired = [fp.transfer_faults_now(0, 1) for _ in range(5)]
        assert fired == [True, False, True, False, False]
        assert fp.transfer_faults_fired == 2

    def test_armed_until_nothing_can_still_fire(self):
        assert not FaultPlan().armed(0.0)
        assert FaultPlan(transfer_fault_rate=0.1).armed(0.0)
        fp = FaultPlan(transfer_faults=[TransferFault(nth=2)])
        fp.transfer_faults_now(0, 1)
        assert fp.armed(0.0)
        fp.transfer_faults_now(0, 1)  # last faulting dispatch
        assert not fp.armed(0.0)
        fp = FaultPlan(stragglers=[Straggler(0, 2.0, start=1.0, end=2.0)])
        assert fp.armed(0.0) and fp.armed(1.5) and not fp.armed(2.0)
        fp.rebase(1.0)  # windows are plan-relative
        assert fp.armed(2.5) and not fp.armed(3.0)
        assert not FaultPlan(stragglers=[Straggler(0)]).armed(0.0)

    def test_link_specific_fault_ignores_other_links(self):
        fp = FaultPlan(transfer_faults=[TransferFault(src=0, dst=1, nth=1)])
        assert not fp.transfer_faults_now(1, 0)  # reverse direction
        assert not fp.transfer_faults_now(0, HOST)
        assert fp.transfer_faults_now(0, 1)

    def test_rate_draws_are_deterministic_per_seed(self):
        draws = []
        for _ in range(2):
            fp = FaultPlan(seed=42, transfer_fault_rate=0.3)
            draws.append([fp.transfer_faults_now(0, 1) for _ in range(64)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_check_alloc_raises_injected_error(self):
        fp = FaultPlan(alloc_failures=[AllocFailure(1, 3)])
        fp.check_alloc(1, 2)
        fp.check_alloc(0, 3)
        with pytest.raises(AllocationError) as ei:
            fp.check_alloc(1, 3)
        assert ei.value.injected and ei.value.device == 1
        assert fp.alloc_faults_fired == 1

    @pytest.mark.parametrize("kwargs", [
        {"transfer_faults": [TransferFault(nth=0)]},
        {"transfer_faults": [TransferFault(count=0)]},
        {"transfer_fault_rate": -0.1},
        {"transfer_fault_rate": 1.0},
    ], ids=["nth0", "count0", "rate-neg", "rate-one"])
    def test_rejects_inputs_it_would_mishandle(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_backoff_is_capped_exponential(self):
        fp = FaultPlan()
        fp.retry_base, fp.retry_cap = 1e-5, 4e-5
        assert fp.backoff(1) == 1e-5
        assert fp.backoff(2) == 2e-5
        assert fp.backoff(3) == 4e-5
        assert fp.backoff(4) == 4e-5  # capped
        with pytest.raises(ValueError):
            fp.backoff(0)


def armed_reference(fp: FaultPlan, now: float) -> bool:
    """``FaultPlan.armed`` as it scanned every spec on every call."""
    if fp.link_faults_pending():
        return True
    now -= fp.epoch
    for wins in fp._stragglers.values():
        for s in wins:
            if not s.healed(now) and (
                s.compute_factor != 1.0 or s.bandwidth_factor != 1.0
            ):
                return True
    return False


class TestArmed:
    @staticmethod
    def random_plan(rng: random.Random) -> FaultPlan:
        def window():
            start = rng.choice([0.0, 1.0, 2.5])
            end = rng.choice([None, start, start + 1.0, start + 4.0])
            return start, end

        stragglers = []
        for _ in range(rng.randrange(4)):
            start, end = window()
            stragglers.append(Straggler(
                device=rng.randrange(3),
                compute_factor=rng.choice([1.0, 1.0, 3.0]),
                bandwidth_factor=rng.choice([1.0, 2.0]),
                start=start, end=end,
            ))
        links = [
            TransferFault(src=rng.choice([0, 1, HOST, None]),
                          dst=rng.choice([0, 1, None]),
                          nth=rng.randrange(1, 6), count=rng.randrange(1, 3))
            for _ in range(rng.randrange(3))
        ]
        return FaultPlan(
            seed=rng.randrange(100),
            stragglers=stragglers,
            transfer_faults=links,
            transfer_fault_rate=rng.choice([0.0, 0.0, 0.0, 0.3]),
            mitigate_stragglers=rng.random() < 0.5,
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_through_rebase_and_faults(self, seed):
        rng = random.Random(seed)
        fp = self.random_plan(rng)
        for _ in range(60):
            op = rng.random()
            if op < 0.15:
                fp.rebase(rng.choice([0.0, 0.5, 3.0, 7.25]))
            elif op < 0.5:
                fp.transfer_faults_now(rng.choice([0, 1, HOST]),
                                       rng.choice([0, 1, HOST]))
            now = rng.choice([0.0, 0.999, 1.0, 2.0, 3.5, 5.0, 6.5, 9.0,
                              rng.uniform(0.0, 12.0)])
            assert fp.armed(now) == armed_reference(fp, now)

    def test_armed_time_is_constant(self):
        # A quiet plan answers from the cached time: no spec is scanned.
        fp = FaultPlan(
            stragglers=[Straggler(device=d, compute_factor=2.0, end=1.0)
                        for d in range(64)],
            transfer_faults=[TransferFault(src=0, dst=1, nth=1)],
        )
        fp.transfer_faults_now(0, 1)
        fp._stragglers = None  # a scan would now raise
        fp.link_faults_pending = None
        assert fp.armed(1.0) is False
        assert fp.armed(0.5) is True


class TestEngineFaults:
    def test_kernel_on_dead_device_raises_device_fault(self):
        fp = FaultPlan(device_failures=[DeviceFailure(0, 0.0)])
        node = SimNode(GTX_780, 2, functional=False, faults=fp)
        s = node.new_stream(0)
        node.launch_kernel(s, 1e-3, label="doomed")
        with pytest.raises(DeviceFault) as ei:
            node.run()
        assert ei.value.device == 0

    def test_device_healthy_before_failure_time(self):
        fp = FaultPlan(device_failures=[DeviceFailure(0, 1.0)])
        node = SimNode(GTX_780, 2, functional=False, faults=fp)
        s = node.new_stream(0)
        node.launch_kernel(s, 1e-3, label="fine")
        node.run()
        assert node.engine.commands_executed == 1

    def test_transfer_touching_dead_device_raises(self):
        fp = FaultPlan(device_failures=[DeviceFailure(1, 0.0)])
        node = SimNode(GTX_780, 2, functional=False, faults=fp)
        s = node.new_stream(0, role="copy-out")
        node.memcpy(s, src=0, dst=1, nbytes=1 << 20, label="to-dead")
        with pytest.raises(DeviceFault) as ei:
            node.run()
        assert ei.value.device == 1

    def test_transient_fault_surfaces_before_payload_runs(self):
        fp = FaultPlan(transfer_faults=[TransferFault(nth=1)])
        node = SimNode(GTX_780, 2, functional=True, faults=fp)
        s = node.new_stream(0, role="copy-in")
        ran = []
        node.memcpy(s, src=HOST, dst=0, nbytes=4096,
                    payload=lambda: ran.append(1), label="flaky")
        with pytest.raises(TransientTransferError):
            node.run()
        assert ran == []  # the command did not happen
        assert node.engine.commands_executed == 0

    def test_compute_straggler_stretches_kernel(self):
        def total_time(faults):
            node = SimNode(GTX_780, 1, functional=False, faults=faults)
            node.launch_kernel(node.new_stream(0), 1e-3, label="k")
            return node.run()

        base = total_time(None)
        slow = total_time(FaultPlan(stragglers=[Straggler(0, 4.0)]))
        assert slow > base * 2

    def test_bandwidth_straggler_stretches_copy(self):
        def total_time(faults):
            node = SimNode(GTX_780, 2, functional=False, faults=faults)
            s = node.new_stream(0, role="copy-in")
            node.memcpy(s, src=HOST, dst=0, nbytes=64 << 20, label="c")
            return node.run()

        base = total_time(None)
        slow = total_time(
            FaultPlan(stragglers=[Straggler(0, bandwidth_factor=3.0)])
        )
        assert slow > base * 2

    def test_injected_alloc_failure_via_node_wiring(self):
        fp = FaultPlan(alloc_failures=[AllocFailure(0, 1)])
        node = SimNode(GTX_780, 1, functional=True, faults=fp)
        from repro.utils.rect import Rect

        with pytest.raises(AllocationError) as ei:
            node.devices[0].memory.allocate(0, Rect((0, 8)), np.float32)
        assert ei.value.injected

    def test_retire_device_keeps_earliest_time(self):
        node = SimNode(GTX_780, 2, functional=False, faults=FaultPlan())
        node.retire_device(1, 2.0)
        node.retire_device(1, 5.0)
        assert node.engine.dead[1] == 2.0


def run_mixed(faults, graph, periods=4, n=64, gemm_n=32):
    """GoL ping-pong, a histogram and a chained SGEMM per period on one
    functional 4-GPU node: one warm-up period, then ``periods`` more,
    eager or as a captured graph (capture one, launch the rest)."""
    node = SimNode(GTX_780, 4, functional=True, faults=faults)
    sched = Scheduler(node)
    rng = np.random.default_rng(11)
    board = rng.integers(0, 2, (n, n), dtype=np.uint8)
    boards = [Matrix(n, n, np.uint8, "gol.a").bind(board.copy()),
              Matrix(n, n, np.uint8, "gol.b").bind(np.zeros_like(board))]
    image = Matrix(n, n, np.uint8, "hist.image").bind(
        rng.integers(0, 256, (n, n), dtype=np.uint8)
    )
    hist = Vector(256, np.int32, "hist.out").bind(np.zeros(256, np.int32))
    b = Matrix(gemm_n, gemm_n, np.float32, "gemm.B").bind(
        (rng.standard_normal((gemm_n, gemm_n)) * 0.1).astype(np.float32)
    )
    xs = [Matrix(gemm_n, gemm_n, np.float32, "gemm.X").bind(
              rng.standard_normal((gemm_n, gemm_n)).astype(np.float32)),
          Matrix(gemm_n, gemm_n, np.float32, "gemm.Y").bind(
              np.zeros((gemm_n, gemm_n), np.float32))]
    gol, hk, gemm = (make_gol_kernel(), make_histogram_kernel("maps"),
                     make_sgemm_routine())
    grid = histogram_grid(image)
    hargs = histogram_containers(image, hist)
    for i in range(2):
        sched.analyze_call(gol, *gol_containers(boards[i], boards[1 - i]))
        sched.analyze_call(gemm, *sgemm_containers(xs[i], b, xs[1 - i]))
    sched.analyze_call(hk, *hargs, grid=grid)

    def period():
        for i in range(2):
            sched.invoke(gol, *gol_containers(boards[i], boards[1 - i]))
            sched.invoke(hk, *hargs, grid=grid)
            sched.invoke_unmodified(
                gemm, *sgemm_containers(xs[i], b, xs[1 - i])
            )

    period()
    sched.wait_all()
    g = None
    if graph:
        with sched.capture() as g:
            period()
        g.launch(periods - 1)
    else:
        for _ in range(periods):
            period()
    for d in (boards[0], hist, xs[0]):
        sched.gather_async(d)
    sched.wait_all()
    rows = [
        (r.kind, re.sub(r"#\d+", "", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]
    outs = [boards[0].host.copy(), hist.host.copy(), xs[0].host.copy()]
    return node, rows, outs, g


class TestUnarmedPlan:
    """An empty FaultPlan is the unarmed state: a node built with one runs
    float-for-float like a node built with ``faults=None``."""

    @staticmethod
    def check_matches_no_plan(faults, graph):
        runs = [run_mixed(f, graph) for f in (None, faults)]
        (na, rows_a, outs_a, ga), (nb, rows_b, outs_b, gb) = runs
        assert rows_a == rows_b
        assert na.engine.commands_executed == nb.engine.commands_executed
        assert na.time == nb.time
        for x, y in zip(outs_a, outs_b):
            assert x.tobytes() == y.tobytes()
        if graph:
            for g in (ga, gb):
                assert g.replayable, g.reason
                assert g.launches == g.fast_launches == 1

    @pytest.mark.parametrize("graph", [False, True], ids=["eager", "graph"])
    def test_empty_plan_matches_no_plan(self, graph):
        self.check_matches_no_plan(FaultPlan(), graph)

    @pytest.mark.parametrize("graph", [False, True], ids=["eager", "graph"])
    @pytest.mark.parametrize("stragglers", [
        [], [Straggler(device=1, compute_factor=8.0, start=0.0, end=1e-12)],
    ], ids=["no-straggler", "healed-straggler"])
    def test_idle_mitigation_matches_no_plan(self, stragglers, graph):
        # Mitigation armed but never alarmed: the mitigator's feedback
        # stays at the calibration, so it must not change a single
        # command, time or byte, nor keep graph replay off its fast path.
        faults = FaultPlan(stragglers=stragglers, mitigate_stragglers=True)
        self.check_matches_no_plan(faults, graph)


    def test_quiet_plan_skips_dispatch_checks(self):
        # A healed straggler and an exhausted link fault leave the plan
        # quiet: dispatch asks it nothing, and still matches no plan.
        fp = FaultPlan(
            stragglers=[Straggler(device=1, compute_factor=8.0, end=1e-12)],
            transfer_faults=[TransferFault(src=0, dst=1, nth=1)],
        )
        assert fp.transfer_faults_now(0, 1)

        def boom(*args):
            raise AssertionError("dispatch queried a quiet plan")

        fp.compute_factor = fp.transfer_factor = boom
        fp.transfer_faults_now = boom
        self.check_matches_no_plan(fp, graph=False)


class TestLeaseRoundTrip:
    def test_unfaulted_lease_uses_empty_plan_and_restores(self, monkeypatch):
        from repro.utils.rect import Rect

        fp = FaultPlan(alloc_failures=[AllocFailure(0, 1)],
                       device_failures=[DeviceFailure(1, 5.0)])
        node = SimNode(GTX_780, 2, functional=True, faults=fp)
        checks = [d.memory.fault_check for d in node.devices]
        dead = dict(node.engine.dead)
        empty = node.empty_plan

        node.begin_lease(None)
        assert node.faults is empty and node.engine.faults is empty
        assert node.engine.dead == {}
        # Allocation #1 on device 0 would fault under the node's own plan.
        node.devices[0].memory.allocate(0, Rect((0, 8)), np.float32)
        assert fp.alloc_faults_fired == 0
        # The leased hooks consult the empty plan, lease-relative.
        seen = []
        monkeypatch.setattr(empty, "check_alloc",
                            lambda dev, nth: seen.append((dev, nth)))
        for d in node.devices:
            d.memory.allocate(d.index, Rect((0, 8)), np.float32)
        assert seen == [(0, 2), (1, 1)]

        node.end_lease()
        assert node.faults is fp and node.engine.faults is fp
        assert node.engine.dead == dead == {1: 5.0}
        assert [d.memory.fault_check for d in node.devices] == checks
        with pytest.raises(AllocationError):
            node.devices[0].memory.fault_check(0, 1)
