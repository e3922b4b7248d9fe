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
from repro.core.graph import IterationGraph, Loop, snapshot_monitor
from repro.errors import GraphCaptureError
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
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

N = 128
GPUS = 4


def norm_trace(node):
    """Trace rows with per-invocation task ids stripped from labels."""
    return [
        (r.kind, re.sub(r"#\d+", "", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]


def gol_setup(faults=None, n=N, capacity=None, functional=True, seed=7):
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
    return node, sched, a, b, kernel, ca, cb


def gol_expected(ticks, n=N, seed=7):
    board = np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)
    for _ in range(ticks):
        board = gol_reference_step(board)
    return board


def run_gol_pairs(pairs, graph, faults=None, capacity=None, laps_between=0):
    """``pairs`` ping-pong periods after a one-period warm-up.

    graph=True: capture period 2, launch the rest. graph=False: the eager
    twin — identical wait_all placement, every lap eager. Returns
    (board, sim_time, trace_rows, graph_or_None, sched).
    """
    node, sched, a, b, kernel, ca, cb = gol_setup(
        faults=faults, capacity=capacity
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
        sched.wait_all()  # begin_batch drain
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()  # end_batch drain
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
        for bad in (
            sched.wait_all,
            lambda: sched.wait(h),
            lambda: sched.gather(a),  # gather_async, then a wait_all
            lambda: sched.analyze_call(kernel, *ca),
            lambda: sched.mark_host_dirty(a),
            lambda: sched.mark_host_region_dirty(a, Rect((0, 1), (0, N))),
        ):
            g = sched.begin_batch()
            with pytest.raises(GraphCaptureError, match="may only submit"):
                bad()
            sched._abort_batch()
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
        assert [fn.__name__ for fn, _, _ in g.calls] == [
            "invoke", "gather_region", "gather_async"
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
            g = sched.begin_batch()
            with pytest.raises(GraphCaptureError, match="pending partials"):
                bad()
            sched._abort_batch()
            assert not g.replayable and g.calls == []

    def test_capture_context_aborts_on_error(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        sched.invoke(kernel, *ca)
        sched.wait_all()
        with pytest.raises(GraphCaptureError):
            with sched.capture():
                sched.invoke(kernel, *cb)
                sched.wait_all()  # boom
        # usable again, no capture left installed
        assert node.graph_recorder is None
        sched.invoke(kernel, *ca)
        sched.wait_all()

    def test_nested_capture_raises(self):
        node, sched, a, b, kernel, ca, cb = gol_setup()
        with sched.capture():
            with pytest.raises(GraphCaptureError):
                sched.begin_batch()
            sched.invoke(kernel, *ca)

    def test_requires_plan_cache(self):
        node = SimNode(GTX_780, GPUS, functional=False)
        sched = Scheduler(node, plan_cache=False)
        with pytest.raises(GraphCaptureError):
            sched.begin_batch()

    def test_unavailable_in_sanitize_mode(self):
        node = SimNode(GTX_780, GPUS, functional=True)
        sched = Scheduler(node, sanitize=True)
        with pytest.raises(GraphCaptureError):
            sched.begin_batch()

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
            sched.wait_all()  # begin_batch drain
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
            sched.wait_all()  # end_batch drain
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
            sched.wait_all()  # begin_batch drain
            period()
            sched.wait_all()  # end_batch drain
        else:
            with sched.capture() as g:
                period()
            if mode == "fallback":
                g._fast_entry = lambda: None
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
                        g._fast_entry = lambda: None
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
    """Single-iteration transition graphs (``Loop.tick``): each phase of a
    ping-pong replays one tick with its edge gathers, and host writes
    between launches (ghost rows, as the cluster master installs them)
    are covered by the launch's entry check."""

    EDGES = (Rect((1, 2), (0, N)), Rect((N - 2, N - 1), (0, N)))
    GHOSTS = (Rect((0, 1), (0, N)), Rect((N - 1, N), (0, N)))

    @classmethod
    def _ticks(cls, mode, ticks=12, monkeypatch=None):
        """``ticks`` ticks, each gathering the output's edge rows and then
        rewriting its ghost rows on the host. ``mode``: ``graph``,
        ``fallback`` (every launch's fast path disabled) or ``eager``."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, kernel, (ca, cb), (b, a))
        if mode == "fallback":
            monkeypatch.setattr(IterationGraph, "_fast_entry", lambda g: None)
        rng = np.random.default_rng(5)
        want = a.host.copy()
        for i in range(ticks):
            out = loop.out(i)
            if mode == "eager":
                loop.step(i)
                for r in cls.EDGES:
                    sched.gather_region(out, r)
                sched.wait_all()
            else:
                loop.tick(i, cls.EDGES)
            want = gol_reference_step(want)
            for r in cls.EDGES:  # the gathered edges are current
                np.testing.assert_array_equal(
                    out.host[r.slices()], want[r.slices()]
                )
            for r in cls.GHOSTS:
                rows = rng.integers(0, 2, (1, N), dtype=np.uint8)
                out.host[r.slices()] = rows
                want[r.slices()] = rows
                sched.mark_host_region_dirty(out, r)
        last = loop.out(ticks - 1)
        sched.gather_async(last)
        t = sched.wait_all()
        np.testing.assert_array_equal(last.host, want)
        return (t, norm_trace(node), node.engine.commands_executed,
                structure(sched.monitor, times=True), loop)

    def test_ghost_writes_between_launches(self, monkeypatch):
        eager = self._ticks("eager")
        fast = self._ticks("graph")
        loop = fast[-1]
        # Per phase: one eager tick, one capture, then launches.
        assert loop.captures == 2 and loop.replayed == 12 - 4
        for _, g in loop.phases:
            assert g.replayable, g.reason
            assert not g.fixed_point
            assert g.launches == g.fast_launches == 4
        assert fast[:4] == eager[:4]
        slow = self._ticks("fallback", monkeypatch=monkeypatch)
        # A launch that falls back keeps its graph: no re-capture.
        assert slow[-1].captures == 2 and slow[-1].replayed == 12 - 4
        for _, g in slow[-1].phases:
            assert g.launches == 4 and g.fast_launches == 0
        assert slow[:4] == eager[:4]

    def test_expired_graph_is_recaptured(self):
        """A graph whose steady state is gone is dropped, and its phase
        starts over: one eager tick, a capture, then fast launches."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, kernel, (ca, cb), (b, a))
        for i in range(6):
            loop.tick(i, self.EDGES)
        old = [g for _, g in loop.phases]
        assert loop.captures == 2 and loop.replayed == 2
        sched._graph_generation += 1  # as a weight rebalance does
        assert all(g.expired for g in old)
        for i in range(6, 12):
            loop.tick(i, self.EDGES)
        assert loop.captures == 4 and loop.replayed == 4
        assert all(g.launches == 1 for g in old)
        for _, g in loop.phases:
            assert g not in old and not g.expired
            assert g.launches == g.fast_launches == 1

    def test_transition_launch_n_falls_back(self):
        """A transition replays one lap; more laps take the fallback."""
        node, sched, a, b, kernel, ca, cb = gol_setup()
        loop = Loop(sched, kernel, (ca, cb), (b, a))
        for i in range(4):
            loop.tick(i, self.EDGES)
            sched.mark_host_region_dirty(loop.out(i), self.GHOSTS[0])
        g = loop.phases[0][1]
        assert g.replayable and not g.fixed_point
        g.launch(2)
        assert g.launches == 1 and g.fast_launches == 0
