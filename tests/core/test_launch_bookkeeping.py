"""A fast launch's bookkeeping against its oracle (DESIGN.md §12).

A fast launch is one generated function: its entry check compares in
full only the datums whose stamp it has not verified, and its exit is
written through straight-line assignments. ``graph_oracle`` keeps the
implementations they replaced; here both run on every launch of a
cluster run with ghost marks, a fixed-point replay whose read tails
compact within one launch, serving's SGEMM loop and eager work that must
force the fallback, and they must agree on the verdict and on the whole
monitor state left behind, stamps included. Each of the launch's
pre-checks, made to fail once, sends it to the fallback (or raises), and
the run matches its eager twin. Every monitor mutation clears the stamp,
so the next launch compares the datum in full.
"""

import inspect

import numpy as np
import pytest

import repro.core.graph as graph_mod
from repro.cluster import ClusterFaultPlan, ClusterMaster, NodeCrash
from repro.core import Matrix, Scheduler
from repro.core.graph import Call, Loop
from repro.core.location_monitor import LocationMonitor, _DatumState
from repro.hardware import GTX_780, HOST
from repro.errors import GraphCaptureError
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.patterns.base import Aggregation
from repro.serving.models import SgemmEngine
from repro.serving.trace import Request
from repro.sim import FaultPlan, SimNode, Straggler
from repro.sim.commands import Event
from repro.utils.rect import Rect

from . import graph_oracle
from . import test_graph as tg


class TestOracleAgrees:
    def test_cluster_ticks_with_ghost_marks(self, monkeypatch):
        """Steady ticks, checkpoint ticks and a crash's recovery: the
        master's ghost marks land between every pair of launches."""
        stats = graph_oracle.install(monkeypatch)
        board = (np.random.default_rng(3).random((64, 32)) < 0.35).astype(
            np.int32
        )
        kernel = make_gol_kernel("maps")
        span = ClusterMaster(GTX_780, 4, 2, board, kernel).run(40)
        plan = ClusterFaultPlan(
            checkpoint_interval=10, node_crashes=[NodeCrash(2, 0.5 * span)]
        )
        m = ClusterMaster(GTX_780, 4, 2, board, kernel, faults=plan)
        m.run(40)
        want = board
        for _ in range(40):
            want = tg.gol_reference_step(want, wrap=False)
        np.testing.assert_array_equal(m.board(), want)
        assert plan.recoveries == 1
        assert stats["fast"] == stats["exits"] > 4 * 40 // 2
        assert stats["entries"] > stats["fast"]  # fallbacks were checked

    def test_transition_ticks(self, monkeypatch):
        stats = graph_oracle.install(monkeypatch)
        *_, loop = tg.TestTransitionGraphs._ticks("graph")
        assert stats["fast"] == sum(g.fast_launches for _, g in loop.slots.values())
        assert stats["fast"] == 8

    @staticmethod
    def _pairs(layers: int):
        """Serving's SGEMM chain as a fixed point: a fresh upload, one
        eager ping-pong pair, a captured pair and ``layers // 2 - 2``
        laps of it, a gather; returns the pair's graph."""
        node = SimNode(GTX_780, 4)
        eng = SgemmEngine(Scheduler(node), batch=4, size=32, layers=layers)
        loop = eng.loop
        loop.sched.mark_host_dirty(eng._x)
        loop.warm_up(0)
        loop.replay(2, layers // 2 - 1)
        loop.sched.gather(eng._x)
        return loop.graph

    def test_fixed_point_tails_compact_within_a_launch(self, monkeypatch):
        """140 layers replay 69 laps per launch; the weight matrix is
        read once per lap on each device, so its read tails cross the
        compaction mark inside every launch."""
        stats = graph_oracle.install(monkeypatch)
        compactions = []
        compact = _DatumState.compact_reads

        def counted(st, loc, host_time):
            compactions.append(loc)
            return compact(st, loc, host_time)

        monkeypatch.setattr(_DatumState, "compact_reads", counted)
        g = self._pairs(140)
        # The serve's closing gather changed the output's host geometry.
        g.launch(69)
        assert (g.launches, g.fast_launches) == (2, 1)
        for _ in range(3):
            compactions.clear()
            compared = g.full_compares
            g.launch(69)
            assert compactions
        assert g.fixed_point and any(x[7] for x in g._exit.values())
        assert g.fast_launches == stats["fast"] == 4
        # Each datum left the fallback unstamped, the next launch stamped
        # it and the one after verified its stamp: the last skips them all.
        assert g.full_compares == compared

    def test_serving_sgemm_loop(self, monkeypatch):
        """Serving's SGEMM engine: each serve (the upload's mark, a host
        sync after the first pair, the gather) is one launch whose read
        tails straddle the sync, and nothing touches its datums between
        launches, so only the first two launches compare them in full."""
        stats = graph_oracle.install(monkeypatch)
        node = SimNode(GTX_780, 4)
        eng = SgemmEngine(Scheduler(node), batch=4, size=32, layers=6)
        eng.warmup()
        for k in range(40):
            eng.serve([Request(rid=k, kind="sgemm", arrival=0.0, seed=k)])
        g = eng.loop.slots[0][1]  # serve 0 eager, serve 1 captured
        assert g.launches == g.fast_launches == stats["fast"] == 38
        assert g._cuts and g._marks
        assert g.full_compares == 2 * len(g._shape)

    @pytest.mark.parametrize("work", ["geometry", "read length"])
    def test_eager_work_forces_the_fallback(self, monkeypatch, work):
        """Eager work between launches that changes a captured datum's
        geometry or the length of a read list the period consumes: both
        checks send the launch down the fallback."""
        stats = graph_oracle.install(monkeypatch)
        node, sched, a, b, kernel, ca, cb = tg.gol_setup()
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        g.launch(2)
        g.launch(2)
        assert g.fast_launches == 2
        if work == "geometry":
            sched.mark_host_region_dirty(a, Rect((0, 1), (0, tg.N)))
        else:
            sched.gather_region(b, Rect((0, 1), (0, tg.N)))
            sched.wait_all()
        g.launch(2)
        assert g.launches == 3 and g.fast_launches == 2
        assert stats["entries"] == 3 and stats["fast"] == 2


    def test_stamp_leaves_appended_lists_checked(self, monkeypatch):
        """A stamp fixes only the read lists its exit replaces. ``a``
        carries phase 0's exit, which appends to the GPU read lists that
        phase 1 consumes; one read more at the end of one of them (put
        there directly, so the stamp stays) still sends phase 1's launch
        down the fallback."""
        stats = graph_oracle.install(monkeypatch)
        node, sched, a, b, kernel, ca, cb = tg.gol_setup()
        loop = Loop(sched, (Call(kernel, ca), Call(kernel, cb)))
        edges = tg.TestTransitionGraphs.EDGES
        for i in range(7):
            loop.run(i, 1, gathers=edges)
        g0, g1 = (loop.slots[k][1] for k in (0, 1))
        assert (g0.fast_launches, g1.fast_launches) == (2, 1)
        st = sched.monitor.states()[id(a)]
        assert st.stamp is not None and st.stamp in g1._verified
        st.pending_reads[0].append(_done())
        loop.run(7, 1, gathers=edges)
        assert g1.launches == 2 and g1.fast_launches == 1
        assert stats["fast"] == 3 and stats["entries"] == 4


#: Each cause a launch's pre-checks refuse, made between a ping-pong
#: graph's first launch and its second, and which launches it lets through
#: (a swapped plan is swapped back before a third).
CAUSES = {
    "second scheduler": [True, False],  # an undrained invoke on the node
    "future failure": [True, False],  # of a device the graph does not use
    "plan swap": [True, False, True],  # an armed plan's lease
    "mitigator drift": [True, False],
    "recorder": [True, True],  # the launch raises while a capture records
}


class TestRefusals:
    """A launch runs its generated function only when every pre-check
    holds. Each cause sends it down the eager fallback (or, for a capture
    recording, raises before it counts), and the run matches its eager
    twin: board, clock and every trace row."""

    @staticmethod
    def _run(cause: str, graph: bool):
        """Warm-up, capture (or its eager twin), a two-lap launch, the
        cause, another, then the gather; returns the board, the time, the
        trace rows and the graph."""
        node, sched, a, b, kernel, ca, cb = tg.gol_setup(
            faults=FaultPlan(mitigate_stragglers=True)
            if cause == "mitigator drift" else None,
            devices=(0, 1, 2) if cause == "future failure" else None,
        )
        if cause == "second scheduler":
            other = Scheduler(node)
            c = Matrix(tg.N, tg.N, np.uint8, "C")
            d = Matrix(tg.N, tg.N, np.uint8, "D")
            c.bind(a.host.copy())
            d.bind(np.zeros_like(a.host))
            cc = gol_containers(c, d)
            other.analyze_call(kernel, *cc)
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

        def launch():
            if g is not None:
                return g.launch(2)
            for _ in range(2):
                sched.invoke(kernel, *ca)
                sched.invoke(kernel, *cb)
            return sched.wait_all()

        launch()
        cut = len(node.trace)
        if cause == "second scheduler":
            other.invoke(kernel, *cc)
        elif cause == "future failure":
            node.retire_device(3, node.time + 1.0)
        elif cause == "plan swap":
            node.begin_lease(FaultPlan(
                stragglers=[Straggler(device=1, compute_factor=2.0)]
            ))
        elif cause == "mitigator drift":
            sched._mitigator.ewma_c[1] = 4.0
        elif g is not None:  # recorder
            with sched.capture():
                with pytest.raises(GraphCaptureError, match="recording"):
                    g.launch(2)
        else:
            sched.wait_all()
            sched.wait_all()
        launch()
        if cause == "second scheduler":
            other.wait_all()
        elif cause == "plan swap":
            node.end_lease()
            launch()
        sched.gather_async(a)
        t = sched.wait_all()
        rows = tg.norm_trace(node)
        return a.host.copy(), t, (rows[:cut], rows[cut:]), g

    @pytest.mark.parametrize("cause", sorted(CAUSES))
    def test_cause_takes_the_fallback(self, monkeypatch, cause):
        stats = graph_oracle.install(monkeypatch)
        be, te, (first_e, rows_e), _ = self._run(cause, graph=False)
        bg, tg_, (first_g, rows_g), g = self._run(cause, graph=True)
        assert np.array_equal(be, bg)
        assert te == tg_
        assert rows_e == rows_g
        assert first_e == first_g
        fast = CAUSES[cause]
        assert (g.launches, g.fast_launches) == (len(fast), sum(fast))
        assert stats["entries"] == len(fast) and stats["fast"] == sum(fast)

    def test_released_scheduler_raises(self):
        """A released scheduler's graph raises before it counts or
        dispatches anything: the release dropped the scheduler's streams,
        which moved the node's epoch."""
        node, sched, a, b, kernel, ca, cb = tg.gol_setup(functional=False)
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        g.launch(2)
        assert g.fast_launches == 1
        epoch = node.epoch
        sched.release()
        assert node.epoch > epoch
        t, rows = node.time, len(node.trace)
        with pytest.raises(GraphCaptureError, match="released"):
            g.launch(2)
        assert (g.launches, node.time, len(node.trace)) == (1, t, rows)


def _compared(monkeypatch, g, sched):
    """A function that launches ``g`` for two laps (or, with ``launch``
    False, with a fallback that submits nothing) and returns the names of
    the datums the entry check compared in full."""
    names = {id(d): d.name for d in sched.monitor._datums.values()}
    seen = []
    matches = graph_mod._matches

    def spied(st, shape):
        seen.append(st)
        return matches(st, shape)

    monkeypatch.setattr(graph_mod, "_matches", spied)

    def run(launch=True):
        seen.clear()
        if launch:
            g.launch(2)
        else:
            calls, g.calls = g.calls, []
            g.launch(2)
            g.calls = calls
        states = sched.monitor.states()
        return {names[did] for did, st in states.items()
                if any(st is s for s in seen)}

    return run


def _host(sched):
    return sched.node.host_time


#: Every monitor entry point that changes a datum's state, run on the
#: stamped datum ``a``: ``(monitor, scheduler, datum) -> None``.
MUTATORS = {
    "mark_copied": lambda m, s, a: m.mark_copied(
        a, HOST, Rect((0, 1), (0, tg.N)), None
    ),
    "mark_written_memoized": lambda m, s, a: m.mark_written(
        a, HOST, Rect((0, 1), (0, tg.N)), None
    ),
    "mark_written_slow": lambda m, s, a: _unamortized(
        m, lambda: m.mark_written(a, HOST, Rect((0, 1), (0, tg.N)), None)
    ),
    "mark_read": lambda m, s, a: m.mark_read(a, 0, _done(), _host(s)),
    "add_read": lambda m, s, a: m.states()[id(a)].add_read(
        1, _done(), _host(s)
    ),
    "take_war_events": lambda m, s, a: m.take_war_events(a, 0),
    "compact_reads": lambda m, s, a: m.states()[id(a)].compact_reads(
        0, _host(s)
    ),
    "take_reads": lambda m, s, a: m.states()[id(a)].take_reads(0),
    "mark_partial": lambda m, s, a: m.mark_partial(
        a, Aggregation.SUM, {0: _done(), 1: _done()}
    ),
    "mark_aggregated": lambda m, s, a: m.mark_aggregated(a, _done()),
    "mark_host_dirty": lambda m, s, a: m.mark_host_dirty(a, _host(s)),
    "drop_location": lambda m, s, a: m.drop_location(a, 3),
    "invalidate_for_recovery": lambda m, s, a: m.invalidate_for_recovery(()),
}

#: Entry points that leave every datum's state as it is.
READ_ONLY = {
    "instances", "needs_aggregation", "aggregation", "compute_copies",
    "replicas", "ready_replicas", "has_partial_on", "evictable",
    "sole_pieces", "states", "fingerprint", "replay_copies",
    "host_covered", "host_reads",
}


def _done() -> Event:
    return Event("done", 0.0)


def _unamortized(m, fn):
    m.amortize = False
    try:
        fn()
    finally:
        m.amortize = True


class TestMutatorsClearTheStamp:
    def test_every_entry_point_is_classified(self):
        """A new public entry point must join MUTATORS (and clear the
        stamp) or READ_ONLY."""
        public = {
            name
            for cls in (LocationMonitor, _DatumState)
            for name, _ in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")
        }
        mutators = {name.split("_memoized")[0].split("_slow")[0]
                    for name in MUTATORS}
        assert public == mutators | READ_ONLY

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_next_launch_compares_in_full(self, monkeypatch, name):
        node, sched, a, b, kernel, ca, cb = tg.gol_setup(functional=False)
        sched.invoke(kernel, *ca)
        sched.invoke(kernel, *cb)
        sched.wait_all()
        with sched.capture() as g:
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)
        compared = _compared(monkeypatch, g, sched)
        assert compared() == {"A", "B"}  # left by the capture's eager period
        assert compared() == {"A", "B"}  # stamped; verified now
        assert compared() == set()
        monitor = sched.monitor
        memo = monitor.transition_hits + monitor.transition_misses
        MUTATORS[name](monitor, sched, a)
        if name == "mark_written_memoized":
            assert monitor.transition_hits + monitor.transition_misses > memo
        assert monitor.states()[id(a)].stamp is None
        # The fallback submits nothing: some of these mutations (a
        # dropped sole copy, partials out of nowhere) leave a state no
        # eager period could run on.
        assert "A" in compared(launch=False)
