"""The bench modules' datums and drivers for the paper's three §5 workloads.

The workloads are declared once, next to their kernels, by
:func:`~repro.kernels.game_of_life.gol_loop`,
:func:`~repro.kernels.histogram.histogram_loop` and
:func:`~repro.libs.cublas.sgemm_chain`, which the job server's workloads
call too. Each takes the caller's datums (so every bench keeps its own
dtypes and names) and declares a :class:`~repro.core.graph.Loop` whose
``step(i)`` submits iteration ``i``. Game of Life and the SGEMM
chain ping-pong between two buffers (period 2); every histogram
invocation is identical (period 1). :data:`TIMING` builds each on
timing-only datums.

Three drivers share the iteration recipes:

* :func:`run` — iterations ``0..iters-1`` with an optional per-iteration
  host checkpoint (``gather``) or handle wait (``wait``);
* :func:`steady` — iterations ``1..iters`` after :meth:`Loop.warm_up`,
  eager, replayed as an iteration graph (DESIGN.md §12), or as the graph's
  eager ``twin`` (``wait_all`` at exactly the capture/launch drains);
* :func:`drain` — aggregate a reductive output, then ``wait_all``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import Matrix, Scheduler, Vector
from repro.core.graph import IterationGraph, Loop
from repro.kernels.game_of_life import gol_loop
from repro.kernels.histogram import histogram_loop
from repro.libs.cublas import sgemm_chain


#: The timing-only datums shared by the faults, overhead, pressure and
#: stragglers benches: workload name -> ``build(sched, size)``.
TIMING: dict[str, Callable[[Scheduler, int], Loop]] = {
    "game_of_life": lambda sched, size: gol_loop(
        sched,
        Matrix(size, size, np.uint8, "gol_a"),
        Matrix(size, size, np.uint8, "gol_b"),
    ),
    "histogram": lambda sched, size: histogram_loop(
        sched,
        Matrix(size, size, np.uint8, "image"),
        Vector(256, np.int32, "hist"),
    ),
    "sgemm_chain": lambda sched, size: sgemm_chain(
        sched,
        Matrix(size, size, np.float32, "X"),
        Matrix(size, size, np.float32, "B"),
        Matrix(size, size, np.float32, "Y"),
    ),
}


def run(loop: Loop, iters: int, sync: str | None = None) -> None:
    """Submit iterations ``0..iters-1``. After each, ``sync="gather"``
    brings its output to the host (a per-iteration checkpoint) and
    ``sync="wait"`` waits on its handle (the straggler feedback loop's
    cadence)."""
    for i in range(iters):
        handle = loop.step(i)
        if sync == "gather":
            loop.sched.gather(loop.out(i))
        elif sync == "wait":
            loop.sched.wait(handle)


def steady(
    loop: Loop, iters: int, mode: str = "eager"
) -> IterationGraph | None:
    """Submit iterations ``1..iters`` after :meth:`Loop.warm_up`.

    ``graph`` lets the first ``period - 1`` iterations finish distributing
    the second buffer, captures the next period, launches the remaining
    whole periods as one macro-command and finishes the rest eagerly.
    ``twin`` submits the same iterations eagerly with ``wait_all`` at each
    capture/launch drain: the graph's bit-identity reference. Both fall
    back to eager when ``iters`` holds no full steady-state period.
    Returns the captured graph, if any.
    """
    if mode not in ("eager", "graph", "twin"):
        raise ValueError(f"unknown steady mode {mode!r}")
    p = loop.period

    def steps(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            loop.step(i)

    if mode == "eager" or iters < 2 * p - 1:
        steps(1, iters + 1)
        return None
    periods = (iters - (2 * p - 1)) // p
    rest = 2 * p + p * periods  # first iteration after the launched laps
    steps(1, p)
    if mode == "graph":
        loop.replay(p, periods + 1)
    else:
        loop.sched.wait_all()  # the capture's opening drain
        steps(p, 2 * p)
        loop.sched.wait_all()  # the capture's closing drain
        steps(2 * p, rest)
        if periods:
            loop.sched.wait_all()  # launch drain
    steps(rest, iters + 1)
    return loop.graph


def drain(loop: Loop, last: int) -> float:
    """Gather iteration ``last``'s output if the monitor still holds it as
    per-device partials, then ``wait_all``; returns the simulated time."""
    out = loop.out(last)
    if loop.sched.monitor.needs_aggregation(out):
        loop.sched.gather(out)
    return loop.sched.wait_all()
