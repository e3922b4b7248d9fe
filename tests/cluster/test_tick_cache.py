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
  is) or runs eagerly; between fault-plan events it asks the plan
  nothing (the master's calm window), checks no region (the ghost marks
  and edge gathers are checked once per exchange plan and loop) and
  builds no exchange plan; its ghost marks join its launch, so no
  scheduler work runs between launches;
* the owed ghost marks are invisible: functional runs whose launches all
  take the eager fallback match the normal runs, and the next tick's
  launch is their only consumer, because a checkpoint, a ghost check or
  a board read gathers interior rows only;
* the geometry follows the slab through ``build``, ``rebuild`` and
  ``revive``;
* an agent holds at most two graphs, and never launches one of a
  released scheduler.
"""

import functools
import gc
import math
import re
import weakref

import numpy as np
import pytest

import repro.cluster.agent as agent_mod
import repro.sim.engine as engine_mod
import repro.sim.segment as segment_mod
from repro.cluster import (
    ClusterFaultPlan,
    ClusterMaster,
    NodeAgent,
    NodeCrash,
    NodeRepair,
)
from repro.core import Grid, Scheduler
from repro.core.graph import IterationGraph, Loop
from repro.core.location_monitor import LocationMonitor, _DatumState
from repro.core.plan import container_signature
from repro.core.task import Task
from repro.hardware import GTX_780, HOST
from repro.kernels.game_of_life import gol_reference_step, make_gol_kernel
from repro.patterns import ZERO, StructuredInjective, Window2D
from repro.utils.rect import Rect

from . import test_calm_window as calm

KERNEL = make_gol_kernel("maps")
NODES, GPUS, TICKS = 4, 2, 60


def _count_fast(monkeypatch) -> dict:
    """Count the graph launches that take the fast path."""
    counts = {"fast": 0}
    launch = IterationGraph.launch

    def counted(self, n=1):
        before = self.fast_launches
        try:
            return launch(self, n)
        finally:
            counts["fast"] += self.fast_launches - before

    monkeypatch.setattr(IterationGraph, "launch", counted)
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
        "log": [(e, type(e.error)) for e in m.log],
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


#: Host work a quiet steady tick must not do: planning (the first
#: three), the fault-plan queries the master's calm window answers, the
#: region checks of the pre-checked ghost marks and edge gathers, and
#: exchange-plan builds.
QUIET = (
    "compute_copies", "agent geometry", "implied grid",
    "crash_in", "reachable", "master_group", "slow_factor", "link_fault_now",
    "_check_region", "_plan_exchange",
)


class TestSteadyTickHostWork:
    """Deterministic host-work counts of steady ticks, on the perf
    benchmark's 8-node setup with its checkpoint interval."""

    @staticmethod
    def _window(monkeypatch) -> tuple[dict, int, dict, dict, dict]:
        """Warm up, then count the host work of :data:`QUIET` and the
        fast launches of 100 ticks; per node, each launch's ``(fast,
        datums its entry check compared in full)``; per master tick,
        the region marks the scheduler made outside ``Loop.run``
        (``"between"``) and the region marks the monitors applied
        (``"applied"``: the former, and those of eager runs and
        fallback launches); and the compiled dispatch of the graphs'
        segments: the window's compiled runs and guard misses, the
        distinct code objects and the compiles since the master was
        built."""
        segments = []
        compile_segment = engine_mod.compile_segment

        def collected(engine, segment, order):
            segments.append(segment)
            return compile_segment(engine, segment, order)

        monkeypatch.setattr(engine_mod, "compile_segment", collected)
        compiles = segment_mod._recipe.cache_info().misses
        m = ClusterMaster(
            GTX_780, 8, 2, (2048, 2048), KERNEL, functional=False,
            faults=ClusterFaultPlan(checkpoint_interval=100),
        )
        # Warm-up past the first checkpoint, whose gathers and the two
        # ticks after it meet monitor states for the first time.
        for _ in range(110):
            m.step()
        counts = dict.fromkeys(QUIET, 0)

        def counted(name, fn, into=counts):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                into[name] += 1
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
        for cls, name in (
            *((ClusterFaultPlan, n) for n in QUIET[3:8]),
            (Scheduler, "_check_region"),
            (ClusterMaster, "_plan_exchange"),
        ):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        fast = _count_fast(monkeypatch)
        launches: dict = {}
        #: Read-list appends and engine segment replays in the launch
        #: running, and in all fast launches.
        running = {"add_read": 0, "run_graph": 0}
        in_fast = dict.fromkeys(running, 0)
        for cls, name in (
            (_DatumState, "add_read"), (engine_mod.Engine, "run_graph"),
        ):
            monkeypatch.setattr(
                cls, name, counted(name, getattr(cls, name), running)
            )
        launch = IterationGraph.launch

        def counted_launch(g, n=1):
            was, compared = g.fast_launches, g.full_compares
            running.update(dict.fromkeys(running, 0))
            out = launch(g, n)
            is_fast = g.fast_launches > was
            launches.setdefault(id(g._sched), []).append(
                (is_fast, g.full_compares - compared)
            )
            if is_fast:
                for name, k in running.items():
                    in_fast[name] += k
            return out

        monkeypatch.setattr(IterationGraph, "launch", counted_launch)
        marks: dict = {"between": {}, "applied": {}}
        in_run = []
        run, mark = Loop.run, Scheduler.mark_checked_region_dirty
        written = LocationMonitor.mark_written

        def counted_run(self, *args, **kwargs):
            in_run.append(1)
            try:
                return run(self, *args, **kwargs)
            finally:
                in_run.pop()

        def counted_mark(self, *args):
            if not in_run:
                marks["between"][m.tick] = marks["between"].get(m.tick, 0) + 1
            return mark(self, *args)

        def counted_written(self, datum, device, rect, event):
            if device == HOST:
                marks["applied"][m.tick] = marks["applied"].get(m.tick, 0) + 1
            return written(self, datum, device, rect, event)

        monkeypatch.setattr(Loop, "run", counted_run)
        monkeypatch.setattr(Scheduler, "mark_checked_region_dirty", counted_mark)
        monkeypatch.setattr(LocationMonitor, "mark_written", counted_written)

        def compiled_counts() -> tuple[int, int]:
            return (sum(s.compiled_runs for s in segments),
                    sum(s.guard_misses for s in segments))

        runs, misses = compiled_counts()
        before = m.tick
        for _ in range(100):  # crosses the checkpoint at tick 200
            m.step()
        assert m.tick == before + 100
        now_runs, now_misses = compiled_counts()
        compiled = {
            "runs": now_runs - runs,
            "misses": now_misses - misses,
            "structures": len({s.run.__code__ for s in segments if s.run}),
            "compiles": segment_mod._recipe.cache_info().misses - compiles,
            **in_fast,
        }
        return counts, fast["fast"], launches, marks, compiled

    def test_steady_ticks_do_no_planning(self, monkeypatch):
        counts, fast, launches, marks, _ = self._window(monkeypatch)
        assert counts == dict.fromkeys(QUIET, 0)
        # Only the two ticks after the checkpoint are not fast: its
        # interior gathers leave a host copy of the slab tick 200 reads,
        # which neither parity's graph starts from until tick 201
        # overwrites that slab, so both launches take the fallback.
        assert fast == 784
        # A fast launch after a fast launch compares no datum in full:
        # the ghost marks joined the launch, so both slabs still carry
        # the other parity's exit, which the graph has verified. After
        # the eager ticks both slabs changed eagerly, so the first fast
        # launch compares both.
        assert len(launches) == 8
        for seq in launches.values():
            for (was_fast, _), (is_fast, full) in zip(
                [(True, 0)] + seq, seq
            ):
                if is_fast:
                    assert full == 0 if was_fast else full <= 2
        # Between launches the scheduler marks nothing, the checkpoint at
        # tick 200 included: the owed ghost rows (two per node) reach the
        # monitors only through the fallback launches of ticks 200 and
        # 201, which apply their recorded marks.
        assert marks == {"between": {}, "applied": {200: 16, 201: 16}}

    def test_steady_ticks_run_compiled(self, monkeypatch):
        """Every fast launch of the window runs its one segment's compiled
        dispatch and misses no guard; the sixteen graphs (two parities on
        eight nodes) share one structure, compiled at most once in the
        process. A fast launch is one generated function: it calls the
        compiled dispatch itself (no ``Engine.run_graph``) and appends its
        read tails inline (no ``add_read``)."""
        _, fast, _, _, compiled = self._window(monkeypatch)
        assert compiled["runs"] == fast == 784
        assert compiled["misses"] == 0
        assert compiled["run_graph"] == compiled["add_read"] == 0
        assert compiled["structures"] == 1
        assert compiled["compiles"] <= compiled["structures"]

    def test_eager_ticks_do_no_planning(self, monkeypatch):
        """With every launch's fast path disabled, each tick runs its
        invoke and edge gathers eagerly: the memoized gather decisions
        and the agent's geometry still leave no planning work."""
        monkeypatch.setattr(IterationGraph, "_compile", lambda g, entry: None)
        counts, fast, _, marks, _ = self._window(monkeypatch)
        assert counts == dict.fromkeys(QUIET, 0)
        assert fast == 0
        assert marks["between"] == {}

    def test_counters_see_the_full_checks(self, monkeypatch):
        """With the calm window forced shut, the same ticks ask the fault
        plan every question: the zero counts above are the window's."""
        monkeypatch.setattr(
            ClusterFaultPlan, "calm_until", lambda self, t, m: -math.inf
        )
        counts, *_ = self._window(monkeypatch)
        for name in QUIET[3:8]:
            assert counts[name] > 0, name
        assert counts["_check_region"] == counts["_plan_exchange"] == 0


#: The calm-window scenarios, plus a checkpoint after every exchange and a
#: board read mid-run: each gathers interior rows while ghost marks are
#: owed, which the next tick's launch applies.
OWED_SCENARIOS = {
    **{name: (make, None) for name, (make, _) in calm.SCENARIOS.items()},
    "checkpoint_every_tick": (
        lambda: ClusterFaultPlan(checkpoint_interval=1), None
    ),
    "board_mid_run": (ClusterFaultPlan, 25),
}


def _owed_run(make_plan, board_at, monkeypatch, fast: bool) -> dict:
    """Every observable of a functional 4-node run; with ``fast`` off,
    every graph launch takes the eager fallback."""
    with monkeypatch.context() as mp:
        counts = _count_fast(mp)
        if not fast:
            mp.setattr(IterationGraph, "_compile", lambda g, entry: None)
        plan = make_plan()
        m = ClusterMaster(GTX_780, 4, 2, calm._board(), KERNEL, faults=plan)
        times, boards = [], []
        for t in range(calm.TICKS):
            m.step()
            times.append(m.time)
            if t == board_at:
                boards.append(m.board().tobytes())
        boards.append(m.board().tobytes())
    return {
        "boards": boards,
        "times": times,
        "log": m.log,
        "link_bytes": dict(m.network.link_bytes),
        "link_transfers": dict(m.network.link_transfers),
        "counters": {c: getattr(plan, c) for c in calm.COUNTERS},
        "fast": counts["fast"],
    }


@pytest.mark.parametrize("name", sorted(OWED_SCENARIOS))
def test_owed_marks_match_the_fallback(name, monkeypatch):
    make_plan, board_at = OWED_SCENARIOS[name]
    fast = _owed_run(make_plan, board_at, monkeypatch, fast=True)
    slow = _owed_run(make_plan, board_at, monkeypatch, fast=False)
    assert fast.pop("fast") > 0 and slow.pop("fast") == 0
    for key in fast:
        assert fast[key] == slow[key], key
    if name in ("checkpoint_every_tick", "board_mid_run"):
        want = [calm._board()]
        for _ in range(calm.TICKS):
            want.append(gol_reference_step(want[-1], wrap=False))
        ticks = [calm.TICKS] if board_at is None else [board_at + 1, calm.TICKS]
        assert fast["boards"] == [want[t].tobytes() for t in ticks]


def _host_gathers(make_plan, board_at, monkeypatch) -> dict:
    """Run a functional 4-node scenario with spies on every scheduler
    gather of a slab: returns the whole-slab gathers, the region gathers
    outside the issuing agent's interior, and the region gathers inside
    it, split by whether they ran inside ``Loop.run`` (the tick's edge
    gathers and their fallbacks) or outside it (the agent's host reads:
    whole interiors for checkpoints and board reads, part of one for the
    ghost cross-check)."""
    agents: list = []
    got = {"whole": [], "outside": [], "interior": 0, "rows": 0, "tick": 0}
    in_run = []

    def owner(sched, datum):
        for ag in agents:
            if ag.sched is sched and ag.slabs and datum in ag.slabs:
                return ag
        return None

    def spy_region(fn):
        def spied(self, datum, region):
            ag = owner(self, datum)
            if ag is not None:
                r = ag.radius
                interior = Rect((r, r + ag.hi - ag.lo), (0, ag.cols))
                if not interior.contains(region):
                    got["outside"].append((ag.node_id, region))
                elif in_run:
                    got["tick"] += 1
                else:
                    got["interior" if region == interior else "rows"] += 1
            return fn(self, datum, region)
        return spied

    def spied_async(self, datum):
        if owner(self, datum) is not None:
            got["whole"].append(datum.name)
        return gather_async(self, datum)

    def spied_run(self, *args, **kwargs):
        in_run.append(1)
        try:
            return run(self, *args, **kwargs)
        finally:
            in_run.pop()

    gather_async, run = Scheduler.gather_async, Loop.run
    with monkeypatch.context() as mp:
        for name in ("gather_region", "_gather_region"):
            mp.setattr(Scheduler, name, spy_region(getattr(Scheduler, name)))
        mp.setattr(Scheduler, "gather_async", spied_async)
        mp.setattr(Loop, "run", spied_run)
        plan = make_plan()
        m = ClusterMaster(GTX_780, 4, 2, calm._board(), KERNEL, faults=plan)
        agents.extend(m.agents.values())
        for t in range(calm.TICKS):
            m.step()
            if t == board_at:
                m.board()
        m.board()
    return got


#: The scenarios whose recovery runs the ghost cross-check.
CROSS_CHECKED = {
    "crash_after_readmission", "crash_repair_reslab", "minority_partition",
    "spare_crash_while_shipping",
}


@pytest.mark.parametrize("name", sorted(OWED_SCENARIOS))
def test_host_reads_gather_interior_rows(name, monkeypatch):
    """Every host gather an agent issues (checkpoints, board reads, the
    ghost cross-check) and every edge gather of its ticks lies inside the
    agent's interior rows: no gather reads a ghost row, so the owed ghost
    marks have no consumer but the next tick's launch."""
    make_plan, board_at = OWED_SCENARIOS[name]
    got = _host_gathers(make_plan, board_at, monkeypatch)
    assert got["whole"] == [] and got["outside"] == []
    assert got["tick"] > 0
    # The closing board read gathers each member's interior; checkpoints
    # and the mid-run board read gather more.
    reads = 4 * (1 + (board_at is not None))
    if name == "checkpoint_every_tick":
        reads += 4 * calm.TICKS
    assert got["interior"] >= reads
    # A recovery from a loss after a completed exchange cross-checks the
    # replayed rows against the surviving ghost copies, which gathers
    # part of an interior.
    assert (got["rows"] > 0) == (name in CROSS_CHECKED)


def _check_geometry(ag: NodeAgent) -> None:
    """The agent's tick geometry equals a freshly computed set for its
    current range and datums."""
    r, s, cols = ag.radius, ag.hi - ag.lo, ag.cols
    assert (
        ag.interior, ag.top_edge, ag.bottom_edge, ag.top_ghost,
        ag.bottom_ghost,
    ) == (
        Rect((r, r + s), (0, cols)),
        Rect((r, 2 * r), (0, cols)),
        Rect((s, s + r), (0, cols)),
        Rect((0, r), (0, cols)),
        Rect((s + r, s + 2 * r), (0, cols)),
    )
    assert len(ag.loop.calls) == 2
    for i, call in enumerate(ag.loop.calls):
        assert call.grid == Grid((s + 2 * r, cols))
        window, out = call.containers
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
        assert ag.slabs is None and ag.loop is None
        assert ag.top_edge is None and ag.bottom_ghost is None
        assert ag.interior is None
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
