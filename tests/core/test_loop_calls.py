"""A :class:`~repro.core.graph.Loop` is its calls (DESIGN.md §12).

Each builder declares a loop from :class:`~repro.core.graph.Call` s
alone; the datum iteration ``i`` writes is the first output container's
of call ``i % period``. The table lists, per builder, the datums its
calls write: the outputs the builders used to hand ``Loop`` beside the
calls. A loop rebuilt from a builder's calls alone must read the same
datums off them.
"""

import numpy as np
import pytest

from repro.apps.lenet import LeNetForward, LeNetParams
from repro.cluster.agent import NodeAgent
from repro.core import Matrix, Scheduler, Vector
from repro.core.graph import Loop
from repro.hardware import GTX_780
from repro.kernels.game_of_life import gol_loop, make_gol_kernel
from repro.kernels.histogram import histogram_loop
from repro.libs.cublas import sgemm_chain
from repro.sim import SimNode


def _sched() -> Scheduler:
    return Scheduler(SimNode(GTX_780, 2, functional=False))


def _gol():
    sched = _sched()
    a, b = Matrix(32, 32, np.uint8, "A"), Matrix(32, 32, np.uint8, "B")
    return gol_loop(sched, a, b), [b, a]


def _histogram():
    sched = _sched()
    image, hist = Matrix(32, 32, np.uint8, "image"), Vector(256, np.int32, "h")
    return histogram_loop(sched, image, hist), [hist]


def _sgemm():
    sched = _sched()
    x, b, y = (Matrix(32, 32, np.float32, n) for n in "XBY")
    return sgemm_chain(sched, x, b, y), [y, x]


def _lenet(mode: str):
    def build():
        fwd = LeNetForward(LeNetParams.initialize(0), 8, mode, bind=False)
        outs = [fwd.a1, fwd.p1, fwd.a2, fwd.p2, fwd.f]
        if mode == "data":
            outs += [fwd.h, fwd.hr]
        else:
            outs += [fwd.fT, fwd.hT, fwd.hrT, fwd.hr]
        return Loop.declare(_sched(), fwd.calls), outs + [fwd.logits]

    return build


def _agent():
    ag = NodeAgent(0, GTX_780, 2, 32, make_gol_kernel(), 1, functional=False)
    ag.build(0, 16, None, 0)
    return ag.loop, [ag.slabs[1], ag.slabs[0]]


BUILDERS = {
    "gol_loop": _gol,
    "histogram_loop": _histogram,
    "sgemm_chain": _sgemm,
    "LeNetForward-data": _lenet("data"),
    "LeNetForward-hybrid": _lenet("hybrid"),
    "NodeAgent": _agent,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_out_is_each_calls_first_output(name):
    loop, outs = BUILDERS[name]()
    assert loop.period == len(outs)
    for i in range(2 * loop.period):
        assert loop.out(i) is outs[i % loop.period]
    bare = Loop(loop.sched, loop.calls)
    assert all(bare.out(i) is out for i, out in enumerate(outs))
