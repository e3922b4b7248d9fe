"""The shared workload builders (next to their kernels) and the drivers
in repro.bench.workloads."""

import re

import numpy as np
import pytest

from repro.bench.workloads import TIMING, drain, run, steady
from repro.core import Matrix, Scheduler, Vector
from repro.hardware import GTX_780
from repro.kernels.game_of_life import gol_loop
from repro.kernels.histogram import histogram_loop
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


def _hosts(name):
    """The persistent host arrays a workload's leases bind to."""
    rng = np.random.default_rng(3)
    if name == "game_of_life":
        board = (rng.random((SIZE, SIZE)) < 0.35).astype(np.int32)
        return [board, np.zeros_like(board)]
    image = rng.integers(0, 256, (SIZE, SIZE), dtype=np.int64)
    return [image.astype(np.uint8), np.zeros(256, np.int32)]


def _declare(name, sched, hosts):
    """A lease's loop: fresh datums bound to the persistent host arrays."""
    if name == "game_of_life":
        a, b = (
            Matrix(SIZE, SIZE, np.int32, f"board{k}").bind(h)
            for k, h in enumerate(hosts)
        )
        return gol_loop(sched, a, b)
    image = Matrix(SIZE, SIZE, np.uint8, "image").bind(hosts[0])
    return histogram_loop(sched, image, Vector(256, np.int32, "hist").bind(hosts[1]))


def _replay(loop, start, n, graph, first):
    """``loop.replay(start, n)``, or its eager twin: the same periods with
    ``wait_all`` where the capture (the lease's ``first`` replay) and the
    launch drain."""
    if graph:
        loop.replay(start, n)
        return
    p, sched = loop.period, loop.sched
    if first:
        sched.wait_all()  # the capture's opening drain
        for i in range(start, start + p):
            loop.step(i)
        sched.wait_all()  # the capture's closing drain
        start, n = start + p, n - 1
    for i in range(start, start + n * p):
        loop.step(i)
    if n:
        sched.wait_all()  # launch drain


#: Per lease, the period counts replayed after its one-period warm-up; the
#: second lease's first replay captures without launching.
LEASES = ((3,), (1, 2))


def _two_leases(name, graph):
    """Periods 0-3 on one scheduler, a checkpoint gather and ``release()``,
    then periods 4-7 on a fresh scheduler of the same node."""
    node = SimNode(GTX_780, GPUS, functional=True)
    hosts = _hosts(name)
    captures = i = 0
    for replays in LEASES:
        sched = Scheduler(node)
        loop = _declare(name, sched, hosts)
        p = loop.period
        loop.warm_up(i)
        i += p
        for k, n in enumerate(replays):
            _replay(loop, i, n, graph, first=k == 0)
            i += n * p
        sched.gather(loop.out(i - 1))
        if graph:
            assert loop.graph.fast_launches == loop.graph.launches == 1
        captures += loop.captures
        sched.release()
    rows = [
        (r.kind, re.sub(r"#\d+", "", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]
    return hosts, node.time, rows, node.engine.commands_executed, captures


@pytest.mark.parametrize("name", ["game_of_life", "histogram"])
def test_graph_matches_twin_across_leases(name):
    hosts_g, t_g, rows_g, cmds_g, captures = _two_leases(name, graph=True)
    hosts_t, t_t, rows_t, cmds_t, _ = _two_leases(name, graph=False)
    assert captures == 2
    for h_g, h_t in zip(hosts_g, hosts_t):
        assert np.array_equal(h_g, h_t)
    assert t_g == t_t
    assert rows_g == rows_t
    assert cmds_g == cmds_t


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
