"""The shared workload builders and drivers in repro.bench.workloads."""

import pytest

from repro.bench.workloads import TIMING, drain, run, steady
from repro.core import Scheduler
from repro.hardware import GTX_780
from repro.sim.node import SimNode

SIZE = 128
GPUS = 4


def _steady(name, iters, mode):
    node = SimNode(GTX_780, GPUS, functional=False)
    loop = TIMING[name](Scheduler(node), SIZE)
    loop.warm_up()
    graph = steady(loop, iters, mode)
    drain(loop, iters)
    return node.time, node.engine.commands_executed, graph


@pytest.mark.parametrize("name", sorted(TIMING))
@pytest.mark.parametrize("iters", range(1, 7))
def test_graph_matches_twin(name, iters):
    t_graph, cmds_graph, _ = _steady(name, iters, "graph")
    t_twin, cmds_twin, _ = _steady(name, iters, "twin")
    assert t_graph == t_twin
    assert cmds_graph == cmds_twin


@pytest.mark.parametrize("name", sorted(TIMING))
def test_short_runs_fall_back_to_eager(name):
    node = SimNode(GTX_780, GPUS, functional=False)
    period = TIMING[name](Scheduler(node), SIZE).period
    for iters in range(1, 2 * period - 1):
        eager = _steady(name, iters, "eager")
        for mode in ("graph", "twin"):
            assert _steady(name, iters, mode) == eager
    # The first iteration count holding a full period is captured.
    assert _steady(name, 2 * period - 1, "graph")[2] is not None


@pytest.mark.parametrize("name, gathered", [
    ("histogram", True),
    ("game_of_life", False),
])
def test_drain_gathers_only_partials(name, gathered, monkeypatch):
    sched = Scheduler(SimNode(GTX_780, GPUS, functional=False))
    loop = TIMING[name](sched, SIZE)
    run(loop, 3)
    calls = []
    gather = sched.gather
    monkeypatch.setattr(
        sched, "gather", lambda d: calls.append(d) or gather(d)
    )
    drain(loop, 2)
    assert calls == ([loop.out(2)] if gathered else [])
    assert not sched.monitor.needs_aggregation(loop.out(2))
