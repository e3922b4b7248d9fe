"""Iteration-graph capture & replay (DESIGN.md §12).

The contract: ``graph.launch(n)`` re-dispatches a captured steady-state
period as one macro-command with *bit-identical* simulated results —
same sim_time, same command stream, same functional numerics — and when
the frozen steady state no longer holds (weight rebalance, device
retirement, eviction, active fault windows, eager interleaving) it
transparently falls back to eager re-invocation, still bit-identically.

Trace comparisons normalize task ids (``name#42`` → ``name``): ids are
per-invocation serial numbers and legitimately differ between runs.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.core import Grid, Kernel, Matrix, Scheduler, Vector
from repro.core.graph import Call, IterationGraph, Loop, snapshot_monitor
from repro.errors import GraphCaptureError, SchedulingError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import histogram_loop
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.patterns import NO_CHECKS, ReductiveStatic, Window1D
from repro.sim import (
    DeviceFailure,
    FaultPlan,
    SimNode,
    Straggler,
    TransferFault,
)
from repro.utils.rect import Rect

from . import graph_oracle

N = 128
GPUS = 4


def norm_trace(node):
    """Trace rows with per-invocation task ids stripped from labels."""
    return [
        (r.kind, re.sub(r"#\d+", "", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]


def gol_setup(
    faults=None, n=N, capacity=None, functional=True, seed=7, **sched_kw
):
    spec = GTX_780 if capacity is None else dataclasses.replace(
        GTX_780, global_memory_bytes=int(capacity)
    )
    node = SimNode(spec, GPUS, functional=functional, faults=faults)
    sched = Scheduler(node, **sched_kw)
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
    return node, sched, a, b, kernel, ca, cb


def gol_expected(ticks, n=N, seed=7):
    board = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
    for _ in range(ticks):
        board = gol_reference_step(board)
    return board


def run_gol_pairs(pairs, graph, faults=None, capacity=None, laps_between=0,
                  devices=None):
    """``pairs`` ping-pong periods after a one-period warm-up, on the
    scheduler's ``devices`` (all GPUs by default).

    graph=True: capture period 2, launch the rest. graph=False: the eager
    twin — identical wait_all placement, every lap eager. Returns
    (board, sim_time, trace_rows, graph_or_None, sched).
    """
    node, sched, a, b, kernel, ca, cb = gol_setup(
        faults=faults, capacity=capacity, devices=devices
    )
    sched.invoke(kernel, *ca)
    sched.invoke(kernel, *cb)  # warm-up period: distribution settles
    sched.wait_all()
    g = None
    if graph:
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        g.launch(pairs - 2)
    else:
        sched.wait_all()  # the capture's opening drain
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()  # the capture's closing drain
        for _ in range(pairs - 2):
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        sched.wait_all()  # launch drain
    sched.gather_async(a)
    t = sched.wait_all()
    return a.host.copy(), t, norm_trace(node), g, sched


class TestCaptureReplay:
    def test_gol_bit_identical(self):
        pairs = 8
        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False)
        bg, tg, rowsg, g, sched = run_gol_pairs(pairs, graph=True)
        assert g.replayable, g.reason
        assert g.launches == g.fast_launches == 1
        assert g.replayed_laps == pairs - 2
        ref = gol_expected(2 * pairs)
        assert np.array_equal(bg, ref)
        assert np.array_equal(be, ref)
        assert te == tg
        assert rowse == rowsg

    @pytest.mark.parametrize(
        "devices", [(0, 1), (0, 2), (0, 1, 2), (1, 2, 3), None]
    )
    def test_gol_replay_keeps_the_eager_order(self, devices):
        """A two-lap replay on any set of the node's GPUs records every
        trace row in the eager twin's order: where two kernels become
        ready at one time, a replayed record waits its turn as an eager
        one does."""
        be, te, rowse, _, _ = run_gol_pairs(4, graph=False, devices=devices)
        bg, tg, rowsg, g, _ = run_gol_pairs(4, graph=True, devices=devices)
        assert g.fast_launches == 1 and g.replayed_laps == 2
        assert np.array_equal(be, bg)
        assert te == tg
        assert rowse == rowsg

    def test_sgemm_unmodified_bit_identical(self):
        def run(graph, n=64, extra_periods=3):
            node = SimNode(GTX_780, GPUS, functional=True)
            sched = Scheduler(node)
            rng = np.random.default_rng(3)
            bmat = Matrix(n, n, np.float32, "B").bind(
                (rng.standard_normal((n, n)) * 0.01).astype(np.float32)
            )
            x = Matrix(n, n, np.float32, "X").bind(
                rng.standard_normal((n, n)).astype(np.float32)
            )
            y = Matrix(n, n, np.float32, "Y").bind(np.zeros((n, n), np.float32))
            gemm = make_sgemm_routine()
            cxy = sgemm_containers(x, bmat, y)
            cyx = sgemm_containers(y, bmat, x)
            sched.analyze_call(gemm, *cxy)
            sched.analyze_call(gemm, *cyx)
            sched.invoke_unmodified(gemm, *cxy)
            sched.invoke_unmodified(gemm, *cyx)
            sched.wait_all()
            if graph:
                with sched.capture() as g:
                    sched.invoke_unmodified(gemm, *cxy)
                    sched.invoke_unmodified(gemm, *cyx)
                g.launch(extra_periods)
                assert g.replayable, g.reason
                assert g.fast_launches == 1
            else:
                sched.wait_all()
                sched.invoke_unmodified(gemm, *cxy)
                sched.invoke_unmodified(gemm, *cyx)
                sched.wait_all()
                for _ in range(extra_periods):
                    sched.invoke_unmodified(gemm, *cxy)
                    sched.invoke_unmodified(gemm, *cyx)
            sched.gather_async(x)
            t = sched.wait_all()
            return x.host.copy(), t, norm_trace(node)

        xe, te, rowse = run(False)
        xg, tg, rowsg = run(True)
        assert np.array_equal(xe, xg)
        assert te == tg
        assert rowse == rowsg

    def test_consecutive_launches_stay_fast(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        g.launch(2)
        g.launch(3)
        assert g.launches == g.fast_launches == 2
        assert g.replayed_laps == 5
        sched.gather_async(a)
        sched.wait_all()
        assert np.array_equal(a.host, gol_expected(2 * 7))

    def test_dropped_loop_frees_its_compiled_code_without_the_collector(
        self,
    ):
        # The generated functions' globals hold the graph's values (its
        # segments, stamps and verified stamps among them); no cycle
        # through them may outlive the loop.
        import gc
        import weakref

        node, sched, a, b, kernel, ca, cb = gol_setup(functional=False)
        loop = Loop.declare(sched, [Call(kernel, ca), Call(kernel, cb)])
        loop.submit(1)
        sched.wait_all()
        loop.replay(2, 3)
        loop.graph.launch(1)  # compiles the segment's dispatch
        g = loop.graph
        assert g.fast_launches == 2
        segment = g._segments[0][0]
        assert segment.run is not None
        refs = [weakref.ref(x) for x in (g._run, segment.run, g)]
        del g, segment
        gc.collect()
        gc.disable()
        try:
            del loop
            assert [r() for r in refs] == [None] * 3
        finally:
            gc.enable()

    def test_eager_interleave_falls_back_bit_identical(self):
        # Eager invokes on the captured datums between launches demote
        # subsequent launches to the (bit-identical) fallback path.
        pairs = 9
        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False)

        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        g.launch(3)
        sched.invoke(kernel, *ca)  # eager interleave
        sched.invoke(kernel, *cb)
        g.launch(3)  # falls back: eager laps broke the frozen state
        assert g.launches == 2
        assert g.fast_launches == 1
        sched.gather_async(a)
        sched.wait_all()
        assert np.array_equal(a.host, gol_expected(2 * pairs))

    def test_graph_hits_trajectory(self):
        node, sched, a, b, kernel, ca, cb = gol_setup(functional=False)
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        assert sched.plans.stats["graph_hits"] == 0
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        assert sched.plans.stats["graph_hits"] == 0  # capture is eager
        g.launch(4)
        hits = sched.plans.stats["graph_hits"]
        assert hits == 4 * 2  # laps x calls per period
        g.launch(1)
        assert sched.plans.stats["graph_hits"] == hits + 2

    def test_launch_zero_is_noop(self):
        node, sched, a, b, kernel, ca, cb = gol_setup(functional=False)
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        t0 = node.time
        g.launch(0)
        assert node.time == t0
        assert g.replayed_laps == 0


class TestCaptureGuards:
    def test_sync_calls_raise_during_capture(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        h = sched.invoke(kernel, *ca)
        sched.wait_all()
        # wait_all and the host-dirty marks, whole or region, are recorded
        # (TestHostOps, TestTransitionGraphs); waiting on one task and
        # analysis are not.
        for bad in (
            lambda: sched.wait(h),
            lambda: sched.analyze_call(kernel, *ca),
        ):
            with pytest.raises(GraphCaptureError, match="may only submit"):
                with sched.capture() as g:
                    bad()
            assert not g.replayable
        # The scheduler stays usable after an aborted capture.
        sched.invoke(kernel, *cb)
        sched.wait_all()

    def test_gathers_are_capturable(self):
        """A gather of a datum without pending partials records its
        device-to-host copies; the graph compiles and replays them, and
        their payloads read the buffers of the launch."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        edge = Rect((1, 2), (0, N))
        rng = np.random.default_rng(3)

        def fresh_input():
            a.host[...] = rng.integers(0, 2, (N, N), dtype=np.uint8)
            sched.mark_host_dirty(a)

        def tick():
            sched.invoke(kernel, *ca)
            sched.gather_region(b, edge)
            sched.gather_async(b)

        for _ in range(2):
            fresh_input()
            tick()
            sched.wait_all()
        fresh_input()
        with sched.capture() as g:
            tick()
        assert g.replayable, g.reason
        # A region gather is recorded past its region check, which ran
        # when the capture recorded it.
        assert [fn.__name__ for fn, _, _ in g.calls] == [
            "invoke", "_gather_region", "gather_async"
        ]
        for _ in range(3):
            fresh_input()
            g.launch(1)
            np.testing.assert_array_equal(b.host, gol_reference_step(a.host))
        assert g.launches == g.fast_launches == 3

    def test_gathering_pending_partials_raises(self):
        sched = Scheduler(SimNode(GTX_780, GPUS, functional=False))
        n = 64
        src = Vector(n, np.float32, "src")
        acc = Vector(n, np.float32, "acc")
        k = Kernel("p")
        grid = Grid((n,), block0=1)
        args = (Window1D(src, 0, NO_CHECKS), ReductiveStatic(acc))
        sched.analyze_call(k, *args, grid=grid)
        sched.invoke(k, *args, grid=grid)
        sched.wait_all()
        for bad in (
            lambda: sched.gather_async(acc),
            lambda: sched.gather_region(acc, Rect((0, n))),
        ):
            with pytest.raises(GraphCaptureError, match="pending partials"):
                with sched.capture() as g:
                    bad()
            assert not g.replayable and g.calls == []

    def test_capture_context_aborts_on_error(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.wait_all()
        with pytest.raises(GraphCaptureError):
            with sched.capture():
                sched.invoke(kernel, *cb)
                sched.analyze_call(kernel, *cb)  # boom
        # usable again, no capture left installed
        assert node.graph_recorder is None
        sched.invoke(kernel, *ca)
        sched.wait_all()

    def test_nested_capture_raises(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        with sched.capture():
            with pytest.raises(GraphCaptureError):
                with sched.capture():
                    pass
            sched.invoke(kernel, *ca)

    def test_requires_plan_cache(self):
        node = SimNode(GTX_780, GPUS, functional=False)
        sched = Scheduler(node, plan_cache=False)
        with pytest.raises(GraphCaptureError):
            with sched.capture():
                pass

    def test_unavailable_in_sanitize_mode(self):
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node, sanitize=True)
        with pytest.raises(GraphCaptureError):
            with sched.capture():
                pass

    def test_release_during_capture(self):
        """Releasing the scheduler inside a capture: the block's closing
        drain refuses the released scheduler, the graph never compiles
        and no hook stays on the node."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        with pytest.raises(SchedulingError, match="released"):
            with sched.capture() as g:
                sched.invoke(kernel, *ca)
                sched.release()
        assert not g.replayable
        assert node.graph_recorder is None and sched.monitor.war_log is None
        assert all("touch" not in vars(d.memory) for d in node.devices)
        assert node.streams == []

    def test_released_schedulers_graph_refuses_to_launch(self):
        """A loop's graph belongs to its scheduler: once that scheduler is
        released (a job-server lease ends, a cluster node is rebuilt),
        launching the graph raises instead of dispatching on freed
        buffers."""
        node, sched, a, b, kernel, ca, cb = gol_setup(n=32)
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        loop.warm_up(0)  # eager warm-up pair, then capture a period
        loop.replay(2, 1)
        assert loop.captures == 1
        sched.release()
        with pytest.raises(GraphCaptureError, match="released"):
            loop.graph.launch(1)

    def test_launch_during_capture_raises(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        with sched.capture():
            sched.invoke(kernel, *ca)
            with pytest.raises(GraphCaptureError):
                g.launch(1)
            sched.invoke(kernel, *cb)


class TestInvalidation:
    """Scheduler-state changes bump the graph generation; stale graphs
    fall back to eager replay, bit-identically."""

    def test_straggler_rebalance_invalidates(self):
        # Mitigated straggler: EWMA feedback rebalances the partition,
        # which must invalidate any captured graph.
        faults = lambda: FaultPlan(  # noqa: E731
            stragglers=[Straggler(device=1, compute_factor=4.0)],
            mitigate_stragglers=True,
        )
        pairs = 8
        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False,
                                            faults=faults())
        bg, tg, rowsg, g, sched = run_gol_pairs(pairs, graph=True,
                                                faults=faults())
        ref = gol_expected(2 * pairs)
        assert np.array_equal(be, ref)
        assert np.array_equal(bg, ref)
        assert te == tg
        assert rowse == rowsg
        # Replay never went down the frozen fast path: either the capture
        # itself was spoiled (rebalance mid-capture) or the launch saw a
        # generation/weight change and fell back.
        assert g.fast_launches == 0

    def test_active_straggler_window_blocks_fast_path(self):
        # Unmitigated straggler with no end: timeline stretched for good;
        # the frozen command stream would be wrong, so launches fall back.
        faults = lambda: FaultPlan(  # noqa: E731
            stragglers=[Straggler(device=1, compute_factor=2.0)]
        )
        pairs = 8
        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False,
                                            faults=faults())
        bg, tg, rowsg, g, sched = run_gol_pairs(pairs, graph=True,
                                                faults=faults())
        assert g.fast_launches == 0
        assert np.array_equal(bg, gol_expected(2 * pairs))
        assert te == tg
        assert rowse == rowsg

    def test_ended_straggler_window_allows_fast_path(self):
        # A straggler that healed before the capture is quiescent: the
        # steady state is genuinely steady again.
        faults = lambda: FaultPlan(  # noqa: E731
            stragglers=[
                Straggler(device=1, compute_factor=2.0, start=0.0, end=1e-5)
            ]
        )
        pairs = 8
        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False,
                                            faults=faults())
        bg, tg, rowsg, g, sched = run_gol_pairs(pairs, graph=True,
                                                faults=faults())
        assert g.replayable, g.reason
        assert g.fast_launches == 1
        assert te == tg
        assert rowse == rowsg

    def test_exhausted_transfer_fault_allows_fast_path(self):
        # The first 0->1 halo copy faults during warm-up and is retried;
        # the spec is exhausted before capture, so launches are fast and
        # per-link counts no replay advances can change no outcome.
        faults = lambda: FaultPlan(  # noqa: E731
            transfer_faults=[TransferFault(src=0, dst=1, nth=1)]
        )
        pairs = 8
        be, te, rowse, _, se = run_gol_pairs(pairs, graph=False,
                                             faults=faults())
        bg, tg, rowsg, g, sg = run_gol_pairs(pairs, graph=True,
                                             faults=faults())
        fe, fg = se.node.faults, sg.node.faults
        assert fe.transfer_faults_fired == fg.transfer_faults_fired == 1
        assert g.replayable, g.reason
        assert g.launches == g.fast_launches == 1
        # Once the spec is exhausted the plan is quiet: neither replayed
        # laps nor unchecked eager dispatches advance the counter, and
        # nothing below differs.
        assert fg._link_counts == fe._link_counts == {(0, 1): 1}
        assert not fg.link_faults_pending()
        assert np.array_equal(bg, gol_expected(2 * pairs))
        assert np.array_equal(be, bg)
        assert te == tg
        assert rowse == rowsg

    def test_pending_transfer_fault_blocks_fast_path(self):
        # One 0->1 halo copy in warm-up, two per period: the 6th 0->1
        # dispatch is in the second launched period. The launch falls
        # back, and the fault fires on the same dispatch as eagerly.
        faults = lambda: FaultPlan(  # noqa: E731
            transfer_faults=[TransferFault(src=0, dst=1, nth=6)]
        )
        pairs = 8
        be, te, rowse, _, se = run_gol_pairs(pairs, graph=False,
                                             faults=faults())
        bg, tg, rowsg, g, sg = run_gol_pairs(pairs, graph=True,
                                             faults=faults())
        assert g.replayable, g.reason
        assert g.launches == 1 and g.fast_launches == 0
        fe, fg = se.node.faults, sg.node.faults
        assert fe.transfer_faults_fired == fg.transfer_faults_fired == 1
        assert fe._link_counts == fg._link_counts
        assert np.array_equal(bg, gol_expected(2 * pairs))
        assert np.array_equal(be, bg)
        assert te == tg
        assert rowse == rowsg

    @staticmethod
    def _retirement_run(graph, faults):
        """Capture on a healthy node, then a checkpointed eager phase
        (where a failure can land and recovery can reroute from the host
        replicas), then replay/eager-twin laps, then gather."""
        node, sched, a, b, kernel, ca, cb = gol_setup(faults=faults)
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        g = None
        if graph:
            with sched.capture() as g:
                sched.invoke(kernel, *ca)
                sched.invoke(kernel, *cb)
        else:
            sched.wait_all()  # the capture's opening drain
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
            sched.wait_all()  # the capture's closing drain
        p0 = node.time
        for _ in range(2):  # checkpointed: every tick gathered
            sched.invoke(kernel, *ca)
            sched.gather(b)
            sched.invoke(kernel, *cb)
            sched.gather(a)
        p1 = node.time
        if graph:
            g.launch(2)
        else:
            for _ in range(2):
                sched.invoke(kernel, *ca)
                sched.invoke(kernel, *cb)
            sched.wait_all()  # launch/fallback drain
        sched.gather_async(a)
        t = sched.wait_all()
        return a.host.copy(), t, norm_trace(node), g, sched, p0, p1

    def test_device_retirement_invalidates(self):
        # Probe the healthy timeline to aim the failure at the middle of
        # the checkpointed phase — after the capture, before the launch.
        _, _, _, _, _, p0, p1 = self._retirement_run(False, None)
        when = (p0 + p1) / 2
        faults = lambda: FaultPlan(  # noqa: E731
            device_failures=[DeviceFailure(device=2, at_time=when)]
        )
        be, te, rowse, _, se, _, _ = self._retirement_run(False, faults())
        bg, tg, rowsg, g, sg, _, _ = self._retirement_run(True, faults())
        assert 2 in se.node.engine.dead  # the failure actually landed
        assert g.replayable, g.reason  # capture itself was healthy
        # Retirement bumped the generation: launch fell back to eager.
        assert g.generation < sg._graph_generation
        assert g.launches == 1
        assert g.fast_launches == 0
        assert np.array_equal(bg, gol_expected(12))  # 2+2+4+4 ticks
        assert np.array_equal(be, bg)
        assert te == tg
        assert rowse == rowsg

    def test_generation_bump_after_capture_falls_back(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        assert g.replayable, g.reason
        sched._graph_generation += 1  # what retire/evict/rebalance do
        g.launch(2)
        assert g.launches == 1
        assert g.fast_launches == 0
        sched.gather_async(a)
        sched.wait_all()
        assert np.array_equal(a.host, gol_expected(2 * 4))

    def test_eviction_invalidates(self):
        # Memory pressure (capacity clamped) forces evictions, which bump
        # the generation; graph replay must fall back, bit-identically.
        pairs = 6
        ref = gol_expected(2 * pairs)

        # Probe the working set, then clamp to 60% of it.
        node2, sched2, a2, b2, k2, ca2, cb2 = gol_setup()
        sched2.invoke(k2, *ca2)
        sched2.wait_all()
        ws = max(r["peak"] for r in node2.memory_report().values())
        cap = int(ws * 0.6)

        be, te, rowse, _, _ = run_gol_pairs(pairs, graph=False, capacity=cap)
        bg, tg, rowsg, g, sched = run_gol_pairs(pairs, graph=True,
                                                capacity=cap)
        assert np.array_equal(be, ref)
        assert np.array_equal(bg, ref)
        assert te == tg
        assert rowse == rowsg


def structure(monitor, times=False):
    """The identity-snapshot oracle, made comparable across runs.

    Every datum's monitor snapshot (``snapshot_monitor``, events by
    reference) with each event replaced by the index of its first
    occurrence, so two states compare equal iff they hold the same
    geometry, aggregation state and read lists with the same aliasing of
    events. With ``times``, each event also carries its id-normalised
    label and recorded time.
    """
    seen: dict = {}

    def ev(e):
        if e is None:
            return None
        k = seen.setdefault(e, len(seen))
        if not times:
            return k
        return k, re.sub(r"#\d+", "", e.label), e.recorded_at

    names = {did: d.name for did, d in monitor._datums.items()}
    out = []
    for did, snap in sorted(
        snapshot_monitor(monitor).items(), key=lambda kv: names[kv[0]]
    ):
        _, utd, mode, aggs, pend, lost, shadow, marks = snap
        out.append((
            names[did],
            tuple(
                (loc, tuple((r, ev(e)) for r, e in insts))
                for loc, insts in utd
            ),
            mode,
            tuple((d, ev(e)) for d, e in aggs),
            tuple((loc, tuple(ev(e) for e in evs)) for loc, evs in pend),
            lost,
            None if shadow is None else (
                shadow[0],
                tuple((d, ev(e)) for d, e in shadow[1]),
                ev(shadow[2]),
            ),
            marks,
        ))
    return out


class TestStructuralReplay:
    """Graphs bind to the monitor by structure: an eager period between
    launches leaves new events in the same places, and the next launch
    still takes the fast path — bit-identically to the eager twin and to
    the fallback path."""

    @staticmethod
    def _gol(mode, rounds=3):
        """Launch two laps, then run one drained eager period over the
        captured datums, ``rounds`` times. ``mode``: ``graph``,
        ``fallback`` (the same graph, fast path disabled) or ``eager``."""
        node, sched, a, b, kernel, ca, cb = gol_setup()

        def period():
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)

        period()  # warm-up
        sched.wait_all()
        entry_ids = snapshot_monitor(sched.monitor)
        entry = structure(sched.monitor)
        g = None
        if mode == "eager":
            sched.wait_all()  # the capture's opening drain
            period()
            sched.wait_all()  # the capture's closing drain
        else:
            with sched.capture() as g:
                period()
            if mode == "fallback":
                g._run = None
        for r in range(rounds):
            if r:
                # The oracle: events differ by identity, structure does
                # not — so only a structural check keeps the fast path.
                assert snapshot_monitor(sched.monitor) != entry_ids
                assert structure(sched.monitor) == entry
            if g is None:
                period()
                period()
                sched.wait_all()
            else:
                g.launch(2)
            period()  # the eager period
            sched.wait_all()
        sched.gather_async(a)
        t = sched.wait_all()
        return (a.host.copy(), t, norm_trace(node),
                node.engine.commands_executed,
                structure(sched.monitor, times=True), g)

    def test_eager_period_between_launches_stays_fast(self):
        eager = self._gol("eager")
        fast = self._gol("graph")
        slow = self._gol("fallback")
        g = fast[-1]
        assert g.replayable, g.reason
        assert g.fixed_point
        assert g.launches == g.fast_launches == 3
        assert slow[-1].launches == 3 and slow[-1].fast_launches == 0
        assert np.array_equal(eager[0], gol_expected(2 * 11))
        for run in (fast, slow):
            assert np.array_equal(run[0], eager[0])
            assert run[1:5] == eager[1:5]

    @staticmethod
    def _serve(mode, serves=40, n=32):
        """The serving pattern: a fresh host input, one eager pair that
        uploads it, two replayed pairs, a gather — against a weight matrix
        that is read every pair and never written, so its read lists cross
        the compaction floor on every path."""
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node)
        rng = np.random.default_rng(11)
        w = Matrix(n, n, np.float32, "W").bind(
            (rng.standard_normal((n, n)) / np.sqrt(n)).astype(np.float32)
        )
        xh = np.zeros((n, n), np.float32)
        x = Matrix(n, n, np.float32, "X").bind(xh)
        y = Matrix(n, n, np.float32, "Y").bind(np.zeros((n, n), np.float32))
        gemm = make_sgemm_routine()
        cxy, cyx = sgemm_containers(x, w, y), sgemm_containers(y, w, x)
        sched.analyze_call(gemm, *cxy)
        sched.analyze_call(gemm, *cyx)

        def pair():
            sched.invoke_unmodified(gemm, *cxy)
            sched.invoke_unmodified(gemm, *cyx)

        g = None
        outs = []
        for _ in range(serves):
            xh[...] = rng.standard_normal((n, n)).astype(np.float32)
            sched.mark_host_dirty(x)
            pair()
            sched.wait_all()
            if mode == "eager":
                if not outs:  # the capture's drains and period
                    sched.wait_all()
                    pair()
                    sched.wait_all()
                pair()
                pair()
                sched.wait_all()
            else:
                if g is None:
                    with sched.capture() as g:
                        pair()
                    if mode == "fallback":
                        g._run = None
                g.launch(2)
            sched.gather(x)
            outs.append(x.host.copy())
        reads = max(
            len(evs)
            for st in sched.monitor.states().values()
            for evs in st.pending_reads.values()
        )
        return (np.stack(outs), node.time, norm_trace(node),
                node.engine.commands_executed,
                structure(sched.monitor, times=True), reads, g)

    def test_serving_pattern_fast_and_exact(self):
        eager = self._serve("eager")
        fast = self._serve("graph")
        slow = self._serve("fallback")
        g = fast[-1]
        assert g.replayable, g.reason
        assert g.launches == g.fast_launches == 40
        assert slow[-1].fast_launches == 0
        for run in (fast, slow):
            assert np.array_equal(run[0], eager[0])
            # Time, trace rows, command count and the whole monitor state
            # (events, times, compacted read lists) match the eager twin.
            assert run[1:5] == eager[1:5]
        # 40 serves read W 240 times per device; compaction kept it short.
        assert eager[5] == fast[5] <= 64


class TestTransitionGraphs:
    """Single-iteration transition graphs (``Loop.run``): each phase of a
    ping-pong replays one tick with its edge gathers, and host writes of
    ghost rows (as the cluster master installs them) are either marked
    between launches, which the launch's entry check covers, or passed
    into the next run as region marks, which its launch records."""

    EDGES = (Rect((1, 2), (0, N)), Rect((N - 2, N - 1), (0, N)))
    GHOSTS = (Rect((0, 1), (0, N)), Rect((N - 1, N), (0, N)))

    @classmethod
    def _ticks(cls, mode, ticks=12, monkeypatch=None, owed=False):
        """``ticks`` ticks, each gathering the output's edge rows and then
        rewriting its ghost rows on the host. ``mode``: ``graph``,
        ``fallback`` (every launch's fast path disabled) or ``eager``.
        With ``owed``, a tick's ghost marks are not made between ticks but
        passed to the next ``Loop.run`` as ``(datum, rect)`` marks, one
        constant tuple per phase; the last tick's are made eagerly before
        the final gather. Returns the node time, trace rows, command count,
        monitor structure, host and engine clocks after every tick, the
        buffers' LRU stamps and the loop."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        if mode == "fallback":
            monkeypatch.setattr(IterationGraph, "_compile", lambda g, entry: None)
        ghosts = {d: tuple((d, r) for r in cls.GHOSTS) for d in (a, b)}
        rng = np.random.default_rng(5)
        want = a.host.copy()
        marks = ()
        clocks = []
        for i in range(ticks):
            out = loop.out(i)
            if mode == "eager":
                for datum, r in marks:
                    sched.mark_host_region_dirty(datum, r)
                loop.step(i)
                for r in cls.EDGES:
                    sched.gather_region(out, r)
                sched.wait_all()
            else:
                loop.run(i, 1, marks=marks, gathers=cls.EDGES)
            clocks.append((node.host_time, node.engine.now))
            want = gol_reference_step(want)
            for r in cls.EDGES:  # the gathered edges are current
                np.testing.assert_array_equal(
                    out.host[r.slices()], want[r.slices()]
                )
            for r in cls.GHOSTS:
                rows = rng.integers(0, 2, (1, N), dtype=np.uint8)
                out.host[r.slices()] = rows
                want[r.slices()] = rows
            if owed:
                marks = ghosts[out]
            else:
                for r in cls.GHOSTS:
                    sched.mark_host_region_dirty(out, r)
        for datum, r in marks:
            sched.mark_host_region_dirty(datum, r)
        last = loop.out(ticks - 1)
        sched.gather_async(last)
        t = sched.wait_all()
        np.testing.assert_array_equal(last.host, want)
        lru = sorted(
            (d.name, dev, sched.analyzer.buffer(d, dev).last_use)
            for d in (a, b)
            for dev in range(GPUS)
        )
        return (t, norm_trace(node), node.engine.commands_executed,
                structure(sched.monitor, times=True), clocks, lru, loop)

    def test_ghost_writes_between_launches(self, monkeypatch):
        eager = self._ticks("eager")
        fast = self._ticks("graph")
        loop = fast[-1]
        # Per phase: one eager tick, one capture, then launches.
        assert loop.captures == 2 and loop.replayed == 12 - 4
        for _, g in loop.slots.values():
            assert g.replayable, g.reason
            assert not g.fixed_point
            assert g.launches == g.fast_launches == 4
        assert fast[:6] == eager[:6]
        slow = self._ticks("fallback", monkeypatch=monkeypatch)
        # A launch that falls back keeps its graph: no re-capture.
        assert slow[-1].captures == 2 and slow[-1].replayed == 12 - 4
        for _, g in slow[-1].slots.values():
            assert g.launches == 4 and g.fast_launches == 0
        assert slow[:6] == eager[:6]

    def test_ghost_marks_join_the_launch(self, monkeypatch):
        """Ghost marks passed into the next run are recorded by its
        capture and cost its launches nothing: host clocks, trace rows,
        command count, monitor structure with event times and LRU stamps
        equal the eager twin's, with the reference entry check and
        exit next to every launch."""
        eager = self._ticks("eager", owed=True)
        assert eager[:6] == self._ticks("eager")[:6]
        stats = graph_oracle.install(monkeypatch)
        fast = self._ticks("graph", owed=True)
        loop = fast[-1]
        # Tick 0 owes no marks: phase 0's marked shape first runs at tick
        # 2, is captured at tick 4 and launched from tick 6; phase 1 is
        # captured at tick 3.
        assert loop.captures == 2 and loop.replayed == 3 + 4
        assert stats["fast"] == 7
        for (shape, g), phase_out in zip(
            (loop.slots[0], loop.slots[1]), (loop.out(1), loop.out(0))
        ):
            assert g.replayable, g.reason
            assert not g.fixed_point and not g._marks
            assert [fn.__name__ for fn, _, _ in g.calls[:2]] == [
                "mark_checked_region_dirty"
            ] * 2
            assert shape[1] and all(d is phase_out for d, _ in shape[1])
            assert g.fast_launches == g.launches
        assert fast[:6] == eager[:6]
        slow = self._ticks("fallback", monkeypatch=monkeypatch, owed=True)
        for _, g in slow[-1].slots.values():
            assert g.fast_launches == 0 and g.launches > 0
        assert slow[:6] == eager[:6]

    def test_region_mark_outside_the_datum_records_nothing(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        bad = Rect((N - 1, N + 1), (0, N))
        before = structure(sched.monitor)
        with pytest.raises(SchedulingError, match="out of bounds"):
            with sched.capture() as g:
                sched.mark_host_region_dirty(a, bad)
        assert g.calls == [] and not g.replayable
        for _ in range(3):  # eager, capture, launch: each raises first
            with pytest.raises(SchedulingError, match="out of bounds"):
                loop.run(0, 1, marks=((a, bad),))
        assert loop.slots == {} and loop.captures == 0
        assert structure(sched.monitor) == before
        assert node.engine.commands_executed == 0

    @staticmethod
    def _side_marks(graph: bool, skip=()):
        """Ticks that also mark a region of a datum ``c`` the loop never
        reads; an eager kernel reads ``c`` again before every tick not in
        ``skip``, so the mark invalidates device copies."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        rng = np.random.default_rng(2)
        c = Matrix(N, N, np.uint8, "C").bind(
            rng.integers(0, 2, (N, N), dtype=np.uint8)
        )
        d = Matrix(N, N, np.uint8, "D").bind(np.zeros((N, N), np.uint8))
        side = gol_containers(c, d)
        sched.analyze_call(kernel, *side)
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        rect = Rect((4, 9), (0, N))
        marks = ((c, rect),)
        for i in range(10):
            if i not in skip:
                sched.invoke(kernel, *side)
                sched.wait_all()
            c.host[rect.slices()] ^= 1
            if graph:
                loop.run(i, 1, marks=marks)
            else:
                sched.mark_host_region_dirty(c, rect)
                loop.step(i)
                sched.wait_all()
        sched.invoke(kernel, *side)
        sched.gather_async(d)
        sched.gather_async(loop.out(9))
        t = sched.wait_all()
        return (t, norm_trace(node), node.engine.commands_executed,
                structure(sched.monitor, times=True), d.host.copy(),
                loop, id(c))

    def test_region_mark_of_an_unread_datum_is_captured(self, monkeypatch):
        eager = self._side_marks(False)
        stats = graph_oracle.install(monkeypatch)
        fast = self._side_marks(True)
        loop, c = fast[-2], fast[-1]
        assert loop.captures == 2 and stats["fast"] == 6
        for _, g in loop.slots.values():
            assert g.replayable, g.reason
            # A marked datum is always captured: its launch writes the
            # mark's effect.
            assert c in g._shape and c in g._exit
            assert g.launches == g.fast_launches == 3
        assert fast[:4] == eager[:4]
        np.testing.assert_array_equal(fast[4], eager[4])

    def test_captured_no_op_mark_still_applies(self, monkeypatch):
        """Marks that changed nothing when captured (no kernel read ``c``
        since the last mark) still bind ``c`` to the graph: a launch that
        finds device copies again takes the fallback, which applies the
        mark."""
        skip = (1, 2, 3)  # the captures are at ticks 2 and 3
        eager = self._side_marks(False, skip)
        stats = graph_oracle.install(monkeypatch)
        fast = self._side_marks(True, skip)
        loop, c = fast[-2], fast[-1]
        assert loop.captures == 2 and stats["entries"] == 6
        assert stats["fast"] == 0
        for _, g in loop.slots.values():
            assert g.replayable, g.reason
            assert c in g._shape
        assert fast[:4] == eager[:4]
        np.testing.assert_array_equal(fast[4], eager[4])

    def test_region_mark_makes_a_transition(self):
        """A period that is otherwise a fixed point replays one lap per
        launch once it marks a region: every launch stands for one host
        write."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.mark_host_region_dirty(a, self.GHOSTS[0])
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        assert g.replayable, g.reason
        assert not g.fixed_point
        g.launch(2)
        assert g.launches == 1 and g.fast_launches == 0

    def test_expired_graph_is_recaptured(self):
        """A graph whose steady state is gone is dropped, and its phase
        starts over: one eager tick, a capture, then fast launches."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        for i in range(6):
            loop.run(i, 1, gathers=self.EDGES)
        old = [g for _, g in loop.slots.values()]
        assert loop.captures == 2 and loop.replayed == 2
        sched._graph_generation += 1  # as a weight rebalance does
        assert all(g.expired for g in old)
        for i in range(6, 12):
            loop.run(i, 1, gathers=self.EDGES)
        assert loop.captures == 4 and loop.replayed == 4
        assert all(g.launches == 1 for g in old)
        for _, g in loop.slots.values():
            assert g not in old and not g.expired
            assert g.launches == g.fast_launches == 1

    def test_transition_launch_n_falls_back(self):
        """A transition replays one lap; more laps take the fallback."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        for i in range(4):
            loop.run(i, 1, gathers=self.EDGES)
            sched.mark_host_region_dirty(loop.out(i), self.GHOSTS[0])
        g = loop.slots[0][1]
        assert g.replayable and not g.fixed_point
        g.launch(2)
        assert g.launches == 1 and g.fast_launches == 0


class TestRunSlots:
    """:meth:`Loop.run`'s slot policy: per phase, a shape's first run is
    eager, its second captured and every later one a launch; another
    shape, a scheduler that cannot capture, and a whole gather of pending
    partials all run eagerly."""

    EDGES = TestTransitionGraphs.EDGES

    def test_new_shape_starts_over(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        want = a.host.copy()

        def run(gathers):
            nonlocal want
            loop.run(0, 2, gathers=gathers)
            want = gol_reference_step(gol_reference_step(want))

        for _ in range(3):
            run(self.EDGES)
        g_edges = loop.slots[0][1]
        assert (loop.captures, loop.replayed) == (1, 1)
        assert g_edges.launches == g_edges.fast_launches == 1
        run(())  # eager: the edges' graph is dropped, never launched
        assert loop.slots[0][1] is None
        assert (loop.captures, loop.replayed) == (1, 1)
        run(())  # captured
        g_none = loop.slots[0][1]
        assert g_none is not g_edges and loop.captures == 2
        run(())  # launched
        assert g_none.launches == g_none.fast_launches == 1
        run(self.EDGES)  # the edges start over too: eager, then capture
        run(self.EDGES)
        assert loop.slots[0][1] not in (g_edges, g_none)
        assert g_edges.launches == 1 and g_none.launches == 1
        assert (loop.captures, loop.replayed) == (3, 2)
        sched.gather(a)
        np.testing.assert_array_equal(a.host, want)

    @staticmethod
    def _serves(**sched_kw):
        """Eight runs of a ping-pong pair with a fresh input's mark, a host
        sync before the second call and a whole gather; returns the
        gathered boards, the node time and the loop."""
        node, sched, a, b, kernel, ca, cb = gol_setup(**sched_kw)
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        rng = np.random.default_rng(9)
        boards = []
        for _ in range(8):
            a.host[...] = rng.integers(0, 2, (N, N), dtype=np.uint8)
            loop.run(0, 2, marks=(a,), syncs=(1,), gathers=(None,))
            boards.append(a.host.copy())
        return np.stack(boards), node.time, loop

    def test_uncapturable_scheduler_runs_eagerly(self):
        graph = self._serves()
        assert (graph[2].captures, graph[2].replayed) == (1, 6)
        for kw in ({"plan_cache": False}, {"sanitize": True}):
            eager = self._serves(**kw)
            assert (eager[2].captures, eager[2].replayed) == (0, 0)
            assert eager[2].slots == {}
            np.testing.assert_array_equal(eager[0], graph[0])
            assert eager[1] == graph[1]

    @staticmethod
    def _histograms(plan_cache: bool):
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node, plan_cache=plan_cache)
        img = Matrix(N, N, np.uint8, "img").bind(np.zeros((N, N), np.uint8))
        h = Vector(256, np.int32, "hist").bind(np.zeros(256, np.int32))
        loop = histogram_loop(sched, img, h)
        rng = np.random.default_rng(4)
        hists = []
        for _ in range(3):
            img.host[...] = rng.integers(0, 256, (N, N), dtype=np.uint8)
            loop.run(0, 1, marks=(img,), gathers=(None,))
            hists.append(h.host.copy())
            np.testing.assert_array_equal(
                hists[-1], np.bincount(img.host.ravel(), minlength=256)
            )
        return np.stack(hists), node.time, loop

    def test_gathering_pending_partials_runs_eagerly(self):
        """A whole gather of partials is a host combine no capture
        records: every run of that shape stays eager, where a capture
        used to raise on the second run."""
        cached = self._histograms(plan_cache=True)
        twin = self._histograms(plan_cache=False)
        assert (cached[2].captures, cached[2].replayed) == (0, 0)
        assert cached[2].slots == {}
        np.testing.assert_array_equal(cached[0], twin[0])
        assert cached[1] == twin[1]


class TestHostOps:
    """A captured ``mark_host_dirty`` is recorded as a monitor op and a
    captured ``wait_all`` as a host sync: a launch compacts the mark's host
    read list at its checkpoint and drains at the sync, rejoining the host
    clock to the engine's before the checkpoints after it. Host clocks,
    trace rows, monitor state and answers equal an eager twin's (plan
    cache off, so it never captures)."""

    @staticmethod
    def _rounds(mode, period, rounds=24, n=32):
        """``rounds`` rounds of ``period(sched, x, w, pair)`` on all four
        GPUs, each after a fresh host input; the weight matrix ``w`` is
        read by every GEMM and never written, so its read lists cross the
        compaction floor with tails on both sides of a sync. ``mode``:
        ``eager``, ``graph`` (round 0 eager, round 1 captured, then
        launches) or ``fallback`` (every launch's fast path disabled)."""
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node, plan_cache=mode != "eager")
        rng = np.random.default_rng(11)
        w = Matrix(n, n, np.float32, "W").bind(
            (rng.standard_normal((n, n)) / np.sqrt(n)).astype(np.float32)
        )
        xh = np.zeros((n, n), np.float32)
        x = Matrix(n, n, np.float32, "X").bind(xh)
        y = Matrix(n, n, np.float32, "Y").bind(np.zeros((n, n), np.float32))
        routine = make_sgemm_routine()
        loop = Loop.declare(sched, (
            Call(routine, sgemm_containers(x, w, y)),
            Call(routine, sgemm_containers(y, w, x)),
        ))

        def pair():
            loop.step(0)
            loop.step(1)

        g = None
        outs, clocks = [], []
        for r in range(rounds):
            xh[...] = rng.standard_normal((n, n)).astype(np.float32)
            if mode == "eager" or r == 0:
                period(sched, x, w, pair)
                sched.wait_all()
            elif g is None:
                with sched.capture() as g:
                    period(sched, x, w, pair)
                if mode == "fallback":
                    g._run = None
            else:
                g.launch(1)
            outs.append(x.host.copy())
            clocks.append((node.host_time, node.engine.now))
        lru = sorted(
            (d.name, dev, buf.last_use)
            for d in (w, x, y)
            for dev in range(GPUS)
            for buf in [sched.analyzer.buffer(d, dev)]
        )
        return (np.stack(outs), clocks, norm_trace(node),
                node.engine.commands_executed,
                structure(sched.monitor, times=True), lru, g)

    @staticmethod
    def _serve(sched, x, w, pair):
        """The SGEMM engine's serve: upload mark, a pair, a host sync, two
        pairs, the gather."""
        sched.mark_host_dirty(x)
        pair()
        sched.wait_all()
        pair()
        pair()
        sched.gather_async(x)

    @staticmethod
    def _late_mark(sched, x, w, pair):
        """As ``_serve``, and the weights are rewritten after the sync:
        their mark sits at a rejoined checkpoint and re-uploads them."""
        sched.mark_host_dirty(x)
        pair()
        sched.wait_all()
        sched.mark_host_dirty(w)
        pair()
        sched.wait_all()
        pair()
        sched.gather_async(x)

    @pytest.mark.parametrize("period", ["_serve", "_late_mark"])
    def test_marks_and_syncs_match_the_eager_twin(self, period, monkeypatch):
        stats = graph_oracle.install(monkeypatch)
        fn = getattr(self, period)
        eager = self._rounds("eager", fn)
        fast = self._rounds("graph", fn)
        g = fast[-1]
        assert g.replayable, g.reason
        assert not g.fixed_point and g._marks and g._cuts
        assert g.launches == g.fast_launches == stats["fast"] == 22
        assert [fn.__name__ for fn, _, _ in g.calls].count("wait_all") == (
            len(g._cuts)
        )
        for run in (fast, self._rounds("fallback", fn)):
            assert np.array_equal(run[0], eager[0])
            # Host clock after every round, trace rows (start times carry
            # the host checkpoints), command count, the whole monitor
            # state (read lists and event times included) and the
            # buffers' LRU stamps.
            assert run[1:6] == eager[1:6]

    def test_mark_after_a_host_read_is_not_replayed(self):
        """A second mark of a datum the period already uploaded would
        compact a list that holds the period's own read: the capture
        stays fallback-only, and launches still equal the eager run."""

        def twice(sched, x, w, pair):
            TestHostOps._serve(sched, x, w, pair)
            sched.mark_host_dirty(x)

        eager = self._rounds("eager", twice)
        fast = self._rounds("graph", twice)
        g = fast[-1]
        assert not g.replayable
        assert g.reason == "a host-dirty mark follows a host read of the period"
        assert g.launches == 22 and g.fast_launches == 0
        assert np.array_equal(fast[0], eager[0])
        assert fast[1:6] == eager[1:6]

    def test_work_submitted_while_a_sync_drains_is_not_replayed(self):
        """A sync whose drain submits work, as a straggler's speculative
        re-execution or a recovery pass does (an event record stands in
        for it here), records it into no segment: the capture stays
        fallback-only."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *cb)
            rec = sched._recorder
            before = rec.sync_mark(node.host_time)
            node.record_event(sched._compute[0], "speculated")
            rec.record_sync(before, node.host_time)
        assert not g.replayable
        assert g.reason == "work was submitted while a captured host sync drained"
