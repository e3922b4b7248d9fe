"""Straggler mitigation (DESIGN.md §11): throughput-feedback rebalancing,
speculative segment re-execution and hedged transfers.

The mitigation contract: with ``FaultPlan.mitigate_stragglers`` on, a run
degraded by slow devices or links finishes substantially earlier than an
unmitigated run, while producing **bit-identical** results (row
re-segmentation and first-complete-wins re-execution change which device
computes a row, never the arithmetic) and a deterministic timeline under a
fixed plan. With the flag off — the default — behaviour is unchanged:
stragglers only stretch the timeline.

Functional (bit-identity) tests run at small sizes; makespan assertions
use timing-only runs at sizes where kernels dominate the timeline.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Matrix, Scheduler
from repro.core.plan import PlanCache, build_plan, task_signature
from repro.errors import StragglerTimeoutError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim import DeviceFailure, FaultPlan, SimNode, Straggler

# Small enough for cheap functional runs, large enough (16 grid blocks)
# that a skewed ratio vector actually changes the partition.
N = 256
ITERS = 6
GPUS = 4


def slow_compute(factor=4.0, device=1, **kw):
    return FaultPlan(
        stragglers=[Straggler(device=device, compute_factor=factor)], **kw
    )


def run_gol(faults=None, n=N, iters=ITERS, functional=True, capacity=None,
            checkpoint=False, seed=7):
    """GoL with a per-iteration ``wait`` (no gather): the feedback loop
    crosses iteration boundaries while kernels dominate the timeline.
    With ``checkpoint=True`` each iteration gathers instead, so the host
    holds a replica of every segment (hedging / recovery fodder)."""
    spec = GTX_780 if capacity is None else dataclasses.replace(
        GTX_780, global_memory_bytes=int(capacity)
    )
    node = SimNode(spec, GPUS, functional=functional, faults=faults)
    sched = Scheduler(node)
    a = Matrix(n, n, np.uint8, "A")
    b = Matrix(n, n, np.uint8, "B")
    if functional:
        board = np.random.default_rng(seed).integers(
            0, 2, (n, n), dtype=np.uint8
        )
        a.bind(board.copy())
        b.bind(np.zeros_like(board))
    kernel = make_gol_kernel()
    ca, cb = gol_containers(a, b), gol_containers(b, a)
    sched.analyze_call(kernel, *ca)
    sched.analyze_call(kernel, *cb)
    src, dst = a, b
    for _ in range(iters):
        h = sched.invoke(kernel, *(ca if src is a else cb))
        if checkpoint:
            sched.gather(dst)
        else:
            sched.wait(h)
        src, dst = dst, src
    sched.gather_async(src)
    t = sched.wait_all()
    return src.host.copy() if functional else None, t, sched, node


def gol_expected(n=N, iters=ITERS, seed=7):
    board = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
    for _ in range(iters):
        board = gol_reference_step(board)
    return board


def run_sgemm(faults=None, n=256, iters=4, functional=True):
    node = SimNode(GTX_780, GPUS, functional=functional, faults=faults)
    sched = Scheduler(node)
    gemm = make_sgemm_routine()
    bmat = Matrix(n, n, np.float32, "B")
    x = Matrix(n, n, np.float32, "X")
    y = Matrix(n, n, np.float32, "Y")
    if functional:
        rng = np.random.default_rng(3)
        bmat.bind(
            (rng.standard_normal((n, n)) * 0.01).astype(np.float32)
        )
        x.bind(rng.standard_normal((n, n)).astype(np.float32))
        y.bind(np.zeros((n, n), np.float32))
    sched.analyze_call(gemm, *sgemm_containers(x, bmat, y))
    sched.analyze_call(gemm, *sgemm_containers(y, bmat, x))
    cur, nxt = x, y
    for _ in range(iters):
        h = sched.invoke_unmodified(gemm, *sgemm_containers(cur, bmat, nxt))
        sched.wait(h)
        cur, nxt = nxt, cur
    sched.gather_async(cur)
    t = sched.wait_all()
    return cur.host.copy() if functional else None, t, sched, node


# -- onset windows (satellite: Straggler.start/end) --------------------------------
class TestOnsetWindow:
    def test_factor_applies_only_inside_window(self):
        fp = FaultPlan(stragglers=[
            Straggler(device=0, compute_factor=3.0, start=1.0, end=2.0)
        ])
        assert fp.compute_factor(0, 0.5) == 1.0
        assert fp.compute_factor(0, 1.0) == 3.0
        assert fp.compute_factor(0, 1.999) == 3.0
        assert fp.compute_factor(0, 2.0) == 1.0  # half-open: healed at end

    def test_endless_window_never_heals(self):
        fp = FaultPlan(stragglers=[
            Straggler(device=0, compute_factor=2.0, start=1.0)
        ])
        assert fp.compute_factor(0, 0.0) == 1.0
        assert fp.compute_factor(0, 1e9) == 2.0

    def test_legacy_no_time_query_is_max_over_windows(self):
        fp = FaultPlan(stragglers=[
            Straggler(device=0, compute_factor=3.0, start=1.0, end=2.0),
            Straggler(device=0, compute_factor=1.5),
        ])
        assert fp.compute_factor(0) == 3.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(stragglers=[
                Straggler(device=0, compute_factor=2.0, start=5.0, end=1.0)
            ])

    def test_windowed_straggler_stretches_only_inside(self):
        _, t_clean, _, _ = run_gol(functional=False, n=512, iters=4)
        # A window that has already closed before the run starts working.
        healed = FaultPlan(stragglers=[
            Straggler(device=1, compute_factor=8.0, start=0.0, end=1e-12)
        ])
        _, t_healed, _, _ = run_gol(healed, functional=False, n=512, iters=4)
        whole = FaultPlan(stragglers=[
            Straggler(device=1, compute_factor=8.0)
        ])
        _, t_whole, _, _ = run_gol(whole, functional=False, n=512, iters=4)
        assert t_healed == pytest.approx(t_clean)
        assert t_whole > 1.2 * t_clean


# -- rebalancing + correctness -----------------------------------------------------
class TestMitigatedGol:
    @pytest.fixture(scope="class")
    def baseline(self):
        out, t, _, _ = run_gol()
        assert np.array_equal(out, gol_expected())
        return out, t

    def test_unmitigated_run_only_stretches(self, baseline):
        ref, _ = baseline
        out, _, sched, _ = run_gol(slow_compute())
        assert np.array_equal(out, ref)
        assert sched._weights is None  # mitigation fully inert

    def test_mitigation_is_bit_identical_and_rebalances(self, baseline):
        ref, _ = baseline
        fp = slow_compute(mitigate_stragglers=True)
        out, _, sched, _ = run_gol(fp)
        assert np.array_equal(out, ref)
        # Feedback engaged: the plans were re-keyed on a skewed ratio.
        assert sched._weights is not None
        assert len(sched._weights) == GPUS
        assert sched._weights[1] < max(sched._weights)

    def test_mitigation_recovers_makespan(self):
        # Timing-only, at a size where kernels dominate: the acceptance
        # target is a 4x-slow device costing <= 1.5x instead of ~4x.
        _, t0, _, _ = run_gol(functional=False, n=2048, iters=8)
        _, t_off, _, _ = run_gol(
            slow_compute(), functional=False, n=2048, iters=8
        )
        fp = slow_compute(mitigate_stragglers=True)
        _, t_on, _, _ = run_gol(fp, functional=False, n=2048, iters=8)
        assert t_off > 1.5 * t0
        assert t_on < t_off
        assert t_on <= 1.5 * t0

    def test_mitigated_timeline_is_deterministic(self):
        def once():
            _, t, _, node = run_gol(
                slow_compute(mitigate_stragglers=True), functional=False
            )
            return t, node.engine.commands_executed

        assert once() == once()

    def test_transient_straggler_returns_to_even_split(self):
        # Slow only at the very start; after healing, the EWMA converges
        # back under the threshold and the even-split plans re-hit.
        fp = FaultPlan(
            stragglers=[Straggler(
                device=1, compute_factor=4.0, start=0.0, end=1e-4
            )],
            mitigate_stragglers=True,
        )
        out, _, sched, _ = run_gol(fp, iters=12)
        assert np.array_equal(out, gol_expected(iters=12))
        assert 1 in sched._mitigator.ewma_c  # feedback did observe the slow phase
        assert sched._weights is None  # ...and healed back to even split


# -- speculative re-execution ------------------------------------------------------
class TestSpeculation:
    def test_compute_bound_segment_is_speculated(self):
        ref, _, _, _ = run_sgemm()
        fp = slow_compute(mitigate_stragglers=True)
        out, _, _, _ = run_sgemm(fp)
        assert fp.speculations_fired >= 1
        assert np.array_equal(out, ref)

    def test_speculation_shortens_makespan(self):
        _, t_off, _, _ = run_sgemm(
            slow_compute(), functional=False, n=1024, iters=6
        )
        fp = slow_compute(mitigate_stragglers=True)
        _, t_on, _, _ = run_sgemm(fp, functional=False, n=1024, iters=6)
        assert fp.speculations_fired >= 1
        assert t_on < t_off

    def test_budget_caps_speculations(self):
        fp = slow_compute(mitigate_stragglers=True)
        fp.max_speculations = 0
        out, _, _, _ = run_sgemm(fp)
        assert fp.speculations_fired == 0
        ref, _, _, _ = run_sgemm()
        assert np.array_equal(out, ref)


# -- hedged transfers --------------------------------------------------------------
class TestHedgedTransfers:
    def test_degraded_route_is_hedged_from_host_replica(self):
        # Checkpointed loop: the host holds a replica of every segment, so
        # halo copies sourced from the slow device's links are hedged. The
        # deterministic cost gate guarantees hedging never loses time.
        fp = FaultPlan(
            stragglers=[Straggler(device=1, bandwidth_factor=6.0)],
            mitigate_stragglers=True,
        )
        fp.max_speculations = 1000
        out, t_on, _, _ = run_gol(fp, n=512, iters=4, checkpoint=True)
        assert fp.hedges_fired >= 1
        assert np.array_equal(out, gol_expected(n=512, iters=4))
        off = FaultPlan(
            stragglers=[Straggler(device=1, bandwidth_factor=6.0)]
        )
        _, t_off, _, _ = run_gol(
            off, n=512, iters=4, checkpoint=True, functional=False
        )
        assert t_on <= t_off

    def test_timeout_when_no_replica_and_no_budget(self):
        # Without checkpoints the degraded device holds the only replica
        # of its segment, and a zero budget leaves nothing to try.
        fp = FaultPlan(
            stragglers=[Straggler(device=1, bandwidth_factor=6.0)],
            mitigate_stragglers=True,
        )
        fp.max_speculations = 0
        with pytest.raises(StragglerTimeoutError):
            run_gol(fp, n=64, functional=False)


# -- plan cache re-keying (satellite) ----------------------------------------------
class TestRatioAwarePlans:
    def test_signature_embeds_ratio_vector(self):
        node = SimNode(GTX_780, GPUS, functional=False)
        sched = Scheduler(node)
        a = Matrix(N, N, np.uint8, "A")
        b = Matrix(N, N, np.uint8, "B")
        kernel = make_gol_kernel()
        task = sched.analyze_call(kernel, *gol_containers(a, b))
        devices = tuple(range(GPUS))
        even = task_signature(task, devices)
        skewed = task_signature(task, devices, weights=(16, 4, 16, 16))
        assert even != skewed
        assert skewed != task_signature(task, devices, weights=(16, 8, 16, 16))

    def test_cache_rekeys_and_rehits_per_ratio(self):
        node = SimNode(GTX_780, GPUS, functional=False)
        sched = Scheduler(node)
        a = Matrix(N, N, np.uint8, "A")
        b = Matrix(N, N, np.uint8, "B")
        kernel = make_gol_kernel()
        task = sched.analyze_call(kernel, *gol_containers(a, b))
        devices = tuple(range(GPUS))
        cache = PlanCache(enabled=True)
        even = build_plan(task, devices, analyzer=sched.analyzer)
        cache.store(even)
        assert cache.lookup(task, devices) is even
        assert cache.lookup(task, devices, weights=(16, 4, 16, 16)) is None
        sched.analyzer.analyze(task, devices, weights=(16, 4, 16, 16))
        skewed = build_plan(
            task, devices, analyzer=sched.analyzer, weights=(16, 4, 16, 16)
        )
        cache.store(skewed)
        assert cache.lookup(task, devices, weights=(16, 4, 16, 16)) is skewed
        # The even-split plan is still cached — healing re-hits it.
        assert cache.lookup(task, devices) is even
        # The weighted split actually skewed the partition.
        assert (skewed.device_plans[1].work_rect.size
                < even.device_plans[1].work_rect.size)

    def test_weighted_durations_follow_the_split(self):
        node = SimNode(GTX_780, GPUS, functional=False)
        sched = Scheduler(node)
        a = Matrix(N, N, np.uint8, "A")
        b = Matrix(N, N, np.uint8, "B")
        kernel = make_gol_kernel()
        task = sched.analyze_call(kernel, *gol_containers(a, b))
        devices = tuple(range(GPUS))
        sched.analyzer.analyze(task, devices, weights=(16, 4, 16, 16))
        even = build_plan(task, devices, analyzer=sched.analyzer)
        skewed = build_plan(
            task, devices, analyzer=sched.analyzer, weights=(16, 4, 16, 16)
        )
        d_even = sched._durations(task, even)
        d_skew = sched._durations(task, skewed)
        assert d_skew[1] < d_even[1]


# -- composition with other fault machinery ----------------------------------------
class TestComposition:
    def test_with_device_failure(self):
        # A permanent failure mid-run composes with an active straggler:
        # recovery re-segments over the survivors, mitigation keeps
        # rebalancing, results stay bit-identical.
        fp = FaultPlan(
            stragglers=[Straggler(device=1, compute_factor=4.0)],
            device_failures=[DeviceFailure(device=3, at_time=1e-4)],
            mitigate_stragglers=True,
        )
        out, _, sched, _ = run_gol(fp, checkpoint=True)
        assert np.array_equal(out, gol_expected())
        assert 3 not in sched.alive_devices

    def test_with_memory_pressure(self):
        _, _, _, node = run_gol()
        ws = max(r["peak"] for r in node.memory_report().values())
        fp = slow_compute(mitigate_stragglers=True)
        out, _, _, _ = run_gol(fp, capacity=ws * 0.6)
        assert np.array_equal(out, gol_expected())
