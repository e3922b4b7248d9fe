"""Graph serving against its eager twin, and the one-launch count gate.

Every serve of both engines is one :meth:`Loop.run
<repro.core.graph.Loop.run>` transition (upload mark, layer calls, a host
sync, the gather). A replica scheduler built with ``plan_cache=False``
cannot capture, so it serves every batch eagerly: that run is the oracle
the graph run must equal bit for bit — answers, latency records and every
trace row the node executed.
"""

import dataclasses
import functools
import re

import pytest

import repro.serving.service as service_mod
from repro.core import Scheduler
from repro.core.graph import IterationGraph, Loop
from repro.core.location_monitor import _DatumState
from repro.serving import ServingConfig, ServingNode, poisson_trace
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, Straggler

CFG = ServingConfig()
TRACE = poisson_trace(200, rate=40000.0, seed=7)

CONFIGS = {
    "default": CFG,
    "batch_limit_1": dataclasses.replace(CFG, batch_limit=1),
    "capacity_0.3": dataclasses.replace(CFG, capacity_frac=0.3),
    # Small enough to evict and chunk: graphs expire and are recaptured.
    "capacity_0.0007": dataclasses.replace(CFG, capacity_frac=0.0007),
    "straggler": dataclasses.replace(CFG, faults=FaultPlan(
        stragglers=(Straggler(device=1, compute_factor=3.0),)
    )),
}


def _serve(cfg: ServingConfig, monkeypatch, eager: bool):
    """The report of one run of ``TRACE`` and every trace row its node
    executed (task ids stripped from labels: a launch replays the labels
    of the invocation it captured)."""
    if eager:
        monkeypatch.setattr(
            service_mod, "Scheduler",
            functools.partial(Scheduler, plan_cache=False),
        )
    sn = ServingNode(cfg)
    trace = sn.node.trace
    rows: list[tuple] = []
    clear = trace.clear

    def keep_and_clear() -> None:
        rows.extend(
            (r.kind, re.sub(r"#\d+", "", r.label), r.device, r.start,
             r.end, r.nbytes, r.src)
            for r in trace
        )
        clear()

    monkeypatch.setattr(trace, "clear", keep_and_clear)
    rep = sn.run(TRACE)
    trace.clear()
    monkeypatch.undo()
    return rep, rows


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_graph_serving_equals_eager_twin(name, monkeypatch):
    cfg = CONFIGS[name]
    eager, eager_rows = _serve(cfg, monkeypatch, eager=True)
    graph, graph_rows = _serve(cfg, monkeypatch, eager=False)
    assert eager.graph_captures == eager.graph_launches == 0
    assert graph.graph_launches > 0
    assert graph.results_hash() == eager.results_hash()
    assert graph.served == eager.served
    assert graph.makespan == eager.makespan
    assert graph_rows == eager_rows
    assert len(graph_rows) > 300


def test_every_steady_serve_is_one_fast_launch(monkeypatch):
    """After each engine's first two serves on a replica (an eager one and
    the capture), every serve is exactly one graph launch and submits no
    task; at least 99% of the launches take the fast path, and each
    segment of a fast launch after a graph's first runs compiled, with no
    guard miss. A fast launch is one generated function: after a graph's
    first, it calls each segment's compiled dispatch itself (no
    ``Engine.run_graph``), and none appends its read tails through
    ``add_read``."""
    serves: dict[int, list[tuple[int, int]]] = {}
    graphs: dict[int, IterationGraph] = {}
    counts = {"launches": 0, "submits": 0}
    #: Read-list appends and engine segment replays in the launch
    #: running, and in the fast launches after each graph's first.
    running = {"add_read": 0, "run_graph": 0}
    in_fast = dict.fromkeys(running, 0)
    first_fast = {"add_read": 0}
    serve, launch = Loop.run, IterationGraph.launch
    submit = Scheduler._submit

    def spied(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            running[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        _DatumState, "add_read", spied("add_read", _DatumState.add_read)
    )
    monkeypatch.setattr(Engine, "run_graph", spied("run_graph", Engine.run_graph))

    def spy_serve(loop, *args, **kwargs):
        before = dict(counts)
        out = serve(loop, *args, **kwargs)
        serves.setdefault(id(loop), []).append(
            tuple(counts[k] - before[k] for k in ("launches", "submits"))
        )
        return out

    def spy_launch(g, n=1):
        graphs[id(g)] = g
        counts["launches"] += 1
        was = g.fast_launches
        running.update(dict.fromkeys(running, 0))
        out = launch(g, n)
        if g.fast_launches > was:
            into = in_fast if was else first_fast
            for name in into:
                into[name] += running[name]
        return out

    def spy_submit(sched, *args):
        counts["submits"] += 1
        return submit(sched, *args)

    monkeypatch.setattr(Loop, "run", spy_serve)
    monkeypatch.setattr(IterationGraph, "launch", spy_launch)
    monkeypatch.setattr(Scheduler, "_submit", spy_submit)
    rep = ServingNode(CFG).run(poisson_trace(1500, rate=50000.0, seed=3))
    steady = [s for per_loop in serves.values() for s in per_loop[2:]]
    assert len(steady) > 0.9 * rep.batches
    assert all(s == (1, 0) for s in steady)
    for per_loop in serves.values():
        assert per_loop[:2] == [(0, per_loop[0][1]), (0, per_loop[1][1])]
        assert per_loop[0][1] > 0 and per_loop[1][1] > 0
    launches = sum(g.launches for g in graphs.values())
    fast = sum(g.fast_launches for g in graphs.values())
    assert launches == len(steady) == rep.graph_launches
    assert fast >= 0.99 * launches
    for g in graphs.values():
        for segment, _, _ in g._segments:
            assert segment.guard_misses == 0
            assert segment.compiled_runs == g.fast_launches - 1
    assert in_fast == {"add_read": 0, "run_graph": 0}
    assert first_fast == {"add_read": 0}
