"""The cluster tick's cached host path (DESIGN.md §15).

Each agent builds its slab's tick geometry once (edge and ghost rects,
the two ping-pong container pairs, the grid), region gathers replay
memoized copy decisions from the node's tables (DESIGN.md §7), and a
steady tick replays as one launch of its parity's single-tick graph
(DESIGN.md §12). Four properties are pinned here:

* the cached path is invisible: a functional run with a crash, a repair
  and a re-slab on rejoin, whose ticks mostly replay as graph launches,
  matches the same run on uncached schedulers (``plan_cache=False``,
  which memoizes and captures nothing, so every tick is eager) in every
  observable;
* a steady tick does no planning work: no Algorithm 2 run, no agent rect,
  container or implied grid, whether it is a fast graph launch (as it
  is) or runs eagerly;
* the geometry follows the slab through ``build``, ``rebuild`` and
  ``revive``;
* an agent holds at most two graphs, and never launches one of a
  released scheduler.
"""

import functools
import gc
import re
import weakref

import numpy as np

import repro.cluster.agent as agent_mod
from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    NodeAgent,
    NodeCrash,
    NodeRepair,
)
from repro.core import Grid, Scheduler
from repro.core.graph import IterationGraph
from repro.core.location_monitor import LocationMonitor
from repro.core.plan import container_signature
from repro.core.task import Task
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel
from repro.patterns import ZERO, StructuredInjective, Window2D
from repro.utils.rect import Rect

KERNEL = make_gol_kernel("maps")
NODES, GPUS, TICKS = 4, 2, 60


def _count_fast(monkeypatch) -> dict:
    """Count the graph launches that take the fast path."""
    counts = {"fast": 0}
    fast = IterationGraph._fast

    def counted(self, *args):
        counts["fast"] += 1
        return fast(self, *args)

    monkeypatch.setattr(IterationGraph, "_fast", counted)
    return counts


def _board():
    rng = np.random.default_rng(3)
    return (rng.random((64, 32)) < 0.35).astype(np.int32)


def _elastic_run(board, crashed, crash_at, repair_at):
    """A functional cluster run with one crash, its repair and a re-slab
    on rejoin; returns every observable the cache must not change."""
    plan = ClusterFaultPlan(
        checkpoint_interval=10,
        reslab_on_rejoin=True,
        node_crashes=[NodeCrash(crashed, crash_at)],
        node_repairs=[NodeRepair(crashed, repair_at)],
    )
    m = ClusterMaster(GTX_780, NODES, GPUS, board, KERNEL, faults=plan)
    nodes = {}
    times = []
    for _ in range(TICKS):
        m.step()
        times.append(m.time)
        for a in m.agents.values():
            nodes.setdefault(id(a.node), a.node)
    traces = [
        [
            (r.kind, re.sub(r"#\d+", "#N", r.label), r.device, r.start,
             r.end, r.nbytes, r.src)
            for r in node.trace
        ]
        for node in nodes.values()
    ]
    gathers = sum(
        len(n.plan_tables.gathers) for n in nodes.values()
        if n.plan_tables is not None
    )
    return {
        "board": m.board(),
        "times": times,
        "link_bytes": dict(m.network.link_bytes),
        "link_transfers": dict(m.network.link_transfers),
        "recovery_log": m.recovery_log,
        "membership_log": m.membership_log,
        "events": [(type(e), str(e)) for e in m.events],
        "counters": (plan.recoveries, plan.nodes_readmitted,
                     plan.checkpoints_taken),
        "traces": traces,
    }, gathers


class TestCachedTickMatchesUncached:
    def test_elastic_run_is_identical(self, monkeypatch):
        board = _board()
        span = ClusterMaster(GTX_780, NODES, GPUS, board, KERNEL).run(TICKS)
        args = (board, 2, 0.40 * span, 0.55 * span)
        counts = _count_fast(monkeypatch)
        cached, cached_gathers = _elastic_run(*args)
        cached_fast = counts["fast"]
        monkeypatch.setattr(
            agent_mod, "Scheduler",
            functools.partial(Scheduler, plan_cache=False),
        )
        oracle, oracle_gathers = _elastic_run(*args)
        # The scenario is live: a recovery and a re-admission happened,
        # and only the caching run memoized gather decisions.
        assert cached["counters"][:2] == (1, 1)
        assert cached_gathers > 0 and oracle_gathers == 0
        # Graphs against eager: most of the cached run's node-ticks were
        # fast launches, and the oracle launched none.
        assert cached_fast >= NODES * TICKS // 2
        assert counts["fast"] == cached_fast
        assert np.array_equal(cached.pop("board"), oracle.pop("board"))
        for key in cached:
            assert cached[key] == oracle[key], key


class TestSteadyTickHostWork:
    """Deterministic host-work counts of steady ticks, on the perf
    benchmark's 8-node setup with its checkpoint interval."""

    @staticmethod
    def _window(monkeypatch) -> tuple[dict, int]:
        """Warm up, then count the planning work and the fast launches
        of 100 ticks."""
        m = ClusterMaster(
            GTX_780, 8, 2, (2048, 2048), KERNEL, functional=False,
            faults=ClusterFaultPlan(checkpoint_interval=100),
        )
        # Warm-up past the first checkpoint, whose gathers and the two
        # ticks after it meet monitor states for the first time.
        for _ in range(110):
            m.step()
        counts = {"compute_copies": 0, "agent geometry": 0,
                  "implied grid": 0}

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            LocationMonitor, "compute_copies",
            counted("compute_copies", LocationMonitor.compute_copies),
        )
        monkeypatch.setattr(
            Task, "_implied_grid", counted("implied grid", Task._implied_grid)
        )
        for name in ("Rect", "Grid", "Window2D", "StructuredInjective"):
            monkeypatch.setattr(
                agent_mod, name,
                counted("agent geometry", getattr(agent_mod, name)),
            )
        fast = _count_fast(monkeypatch)
        before = m.tick
        for _ in range(100):  # crosses the checkpoint at tick 200
            m.step()
        assert m.tick == before + 100
        return counts, fast["fast"]

    def test_steady_ticks_do_no_planning(self, monkeypatch):
        counts, fast = self._window(monkeypatch)
        assert counts == {"compute_copies": 0, "agent geometry": 0,
                          "implied grid": 0}
        # Only the two ticks after the checkpoint take the fallback.
        assert fast >= 0.95 * 8 * 100

    def test_eager_ticks_do_no_planning(self, monkeypatch):
        """With every launch's fast path disabled, each tick runs its
        invoke and edge gathers eagerly: the memoized gather decisions
        and the agent's geometry still leave no planning work."""
        monkeypatch.setattr(IterationGraph, "_fast_entry", lambda g: None)
        counts, fast = self._window(monkeypatch)
        assert counts == {"compute_copies": 0, "agent geometry": 0,
                          "implied grid": 0}
        assert fast == 0


def _check_geometry(ag: NodeAgent) -> None:
    """The agent's tick geometry equals a freshly computed set for its
    current range and datums."""
    r, s, cols = ag.radius, ag.hi - ag.lo, ag.cols
    assert (ag.top_edge, ag.bottom_edge, ag.top_ghost, ag.bottom_ghost) == (
        Rect((r, 2 * r), (0, cols)),
        Rect((s, s + r), (0, cols)),
        Rect((0, r), (0, cols)),
        Rect((s + r, s + 2 * r), (0, cols)),
    )
    assert ag.grid == Grid((s + 2 * r, cols))
    assert len(ag.calls) == 2
    for i, (window, out) in enumerate(ag.calls):
        src, dst = ag.slabs[i], ag.slabs[1 - i]
        assert window.datum is src and out.datum is dst
        assert container_signature(window) == container_signature(
            Window2D(src, r, ZERO)
        )
        assert container_signature(out) == container_signature(
            StructuredInjective(dst)
        )


class TestGeometryFollowsSlab:
    def test_build_rebuild_revive(self):
        ag = NodeAgent(0, GTX_780, 2, 32, KERNEL, 1, functional=False)
        ag.build(0, 16, None, 0)
        _check_geometry(ag)
        ag.compute(0, True)
        # A new range.
        ag.build(16, 40, None, 1)
        _check_geometry(ag)
        ag.compute(1, True)
        # The same range on new datums: the containers must follow them.
        old = ag.slabs
        ag.rebuild(16, 40, None, 0)
        assert ag.slabs[0] is not old[0]
        _check_geometry(ag)
        ag.compute(0, True)
        ag.revive(ag.node.time)
        assert ag.slabs is None and ag.grid is None and ag.calls == ()
        assert ag.top_edge is None and ag.bottom_ghost is None
        ag.build(8, 20, None, 1)
        _check_geometry(ag)
        assert ag.compute(1, True) > 0


class TestBoundedGraphs:
    def test_build_rebuild_revive(self, monkeypatch):
        """An agent holds at most its two parity graphs, across ``build``,
        ``rebuild`` and ``revive``, and never launches a graph of a
        released scheduler."""
        made = []
        init, launch = IterationGraph.__init__, IterationGraph.launch

        def tracked_init(self, scheduler):
            init(self, scheduler)
            made.append(weakref.ref(self))

        def checked_launch(self, n=1):
            assert not self._sched.released
            return launch(self, n)

        monkeypatch.setattr(IterationGraph, "__init__", tracked_init)
        monkeypatch.setattr(IterationGraph, "launch", checked_launch)
        fast = _count_fast(monkeypatch)

        def ticks(ag, n=8):
            for i in range(n):
                ag.compute(i % 2, True)
                gc.collect()
                assert sum(r() is not None for r in made) <= 2

        ag = NodeAgent(0, GTX_780, 2, 32, KERNEL, 1, functional=False)
        ag.build(0, 16, None, 0)
        ticks(ag)
        ag.build(16, 40, None, 0)
        ticks(ag)
        ag.rebuild(16, 40, None, 0)
        ticks(ag)
        ag.revive(ag.node.time)
        gc.collect()
        assert all(r() is None for r in made)
        ag.build(8, 20, None, 0)
        ticks(ag)
        # Each stage captured both parities and launched them fast.
        assert len(made) == 8 and fast["fast"] == 4 * 4
