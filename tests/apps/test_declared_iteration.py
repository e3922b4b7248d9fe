"""The applications declare their iteration once, as a ``Loop``.

``run_iteration`` re-invokes the declared calls: it builds no container
and no grid. Driving a trainer through its loop is bit-identical to
invoking the same declared calls one by one on a twin trainer: losses,
parameters, logits, simulated time and executed commands.
"""

import sys

import numpy as np
import pytest

from repro.apps.lenet import LeNetParams, MapsLeNetTrainer, synthetic_mnist
from repro.apps.nmf import MapsNMF
from repro.core import Grid, Scheduler
from repro.hardware import GTX_780
from repro.patterns.base import Container
from repro.sim import SimNode


def constructed(fn) -> list[str]:
    """Type names of the containers and grids built while ``fn`` runs."""
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__init__":
            obj = frame.f_locals.get("self")
            if isinstance(obj, (Container, Grid)):
                made.append(type(obj).__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return made


def _timing_sched() -> Scheduler:
    return Scheduler(SimNode(GTX_780, 2, functional=False))


@pytest.mark.parametrize("mode", ["data", "hybrid"])
def test_trainer_iteration_builds_nothing(mode):
    trainer = MapsLeNetTrainer(
        _timing_sched(), LeNetParams.initialize(0), 64, mode=mode
    )
    assert trainer.loop.period == {"data": 28, "hybrid": 32}[mode]

    def two_iterations():
        trainer.run_iteration()
        trainer.run_iteration()
        trainer.sched.wait_all()

    assert constructed(two_iterations) == []


def test_nmf_iteration_builds_nothing():
    nmf = MapsNMF(_timing_sched(), (256, 128), k=16)
    assert nmf.loop.period == 8

    def two_iterations():
        nmf.run_iteration()
        nmf.run_iteration()
        nmf.sched.wait_all()

    assert constructed(two_iterations) == []


def test_the_profile_sees_a_construction():
    """The counter's own check: a per-call rebuild would be seen."""
    trainer = MapsLeNetTrainer(
        _timing_sched(), LeNetParams.initialize(0), 64, mode="data"
    )
    made = constructed(lambda: trainer._calls())
    assert "BlockStriped" in made and "Grid" in made


def _plain_iteration(trainer: MapsLeNetTrainer, calls) -> None:
    """The declared calls, invoked one by one without the loop."""
    for call in calls:
        trainer.sched.invoke_unmodified(
            call.kernel, *call.containers, grid=call.grid,
            constants=call.constants,
        )


def _plain_train(trainer, x, y) -> float:
    trainer.fwd.x0.host[...] = x
    trainer.labels.host[...] = y
    trainer.sched.mark_host_dirty(trainer.fwd.x0)
    trainer.sched.mark_host_dirty(trainer.labels)
    _plain_iteration(trainer, trainer.loop.calls)
    trainer.sched.gather(trainer.loss)
    return float(trainer.loss.host[0])


def _plain_forward(trainer, x) -> np.ndarray:
    fwd = trainer.fwd
    fwd.x0.host[...] = x
    trainer.sched.mark_host_dirty(fwd.x0)
    _plain_iteration(trainer, fwd.calls)
    trainer.sched.gather(fwd.logits)
    return fwd.logits.host.copy()


@pytest.mark.parametrize("mode", ["data", "hybrid"])
def test_loop_driven_trainer_matches_plain_invokes(mode):
    batch, steps = 16, 3
    x, y = synthetic_mnist(batch * steps, seed=8)
    twins = [
        MapsLeNetTrainer(
            Scheduler(SimNode(GTX_780, 2, functional=True)),
            LeNetParams.initialize(4), batch, mode=mode, lr=0.1,
        )
        for _ in range(2)
    ]
    looped, plain = twins
    for s in range(steps):
        sl = slice(s * batch, (s + 1) * batch)
        loss = looped.train_batch(x[sl], y[sl])
        assert loss == _plain_train(plain, x[sl], y[sl])
        # Three forward passes: eager, captured, launched.
        for _ in range(3):
            assert np.array_equal(
                looped.forward_batch(x[sl]), _plain_forward(plain, x[sl])
            )
    ours, theirs = looped.gather_params(), plain.gather_params()
    for name, arr in ours.items():
        assert np.array_equal(arr, getattr(theirs, name)), name
    a, b = looped.node, plain.node
    assert a.time == b.time
    assert a.engine.commands_executed == b.engine.commands_executed
    assert looped.loop.replayed > 0
