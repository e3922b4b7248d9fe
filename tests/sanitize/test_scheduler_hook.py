"""Tests for Scheduler(sanitize=True): conformance checks inside runs."""

import numpy as np
import pytest

from repro.core import Scheduler
from repro.core.datum import from_array
from repro.errors import SchedulingError
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
    make_gol_oob_kernel,
)
from repro.patterns import WRAP
from repro.hardware import GTX_780
from repro.sanitize import OutOfPatternReadError
from repro.sim import SimNode


def board(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, n)) < 0.35).astype(np.int32)


class TestSchedulerSanitize:
    def test_requires_functional_node(self):
        node = SimNode(GTX_780, 2, functional=False)
        with pytest.raises(SchedulingError):
            Scheduler(node, sanitize=True)

    def test_clean_kernel_unaffected(self):
        b0 = board()
        ref = gol_reference_step(b0)
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node, sanitize=True)
        a = from_array(b0, "sh.a")
        b = from_array(np.zeros_like(b0), "sh.b")
        k = make_gol_kernel()
        sched.analyze_call(k, *gol_containers(a, b))
        sched.invoke(k, *gol_containers(a, b))
        sched.gather(b)
        assert (b.host == ref).all()

    def test_oob_kernel_raises_through_run(self):
        b0 = board(seed=1)
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node, sanitize=True)
        a = from_array(b0, "sh2.a")
        b = from_array(np.zeros_like(b0), "sh2.b")
        k = make_gol_oob_kernel()
        sched.analyze_call(k, *gol_containers(a, b, variant="naive"))
        sched.invoke(k, *gol_containers(a, b, variant="naive"))
        with pytest.raises(OutOfPatternReadError) as ei:
            sched.wait_all()
        e = ei.value
        assert e.device is not None
        assert e.container_index == 0

    def test_violation_raises_once_after_the_drain(self):
        """A violating task followed by a clean one: wait_all drains both,
        then raises the violation once; the next wait_all does not."""
        b0, c0 = board(seed=3), board(seed=4)
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node, sanitize=True)
        a = from_array(b0, "sh4.a")
        b = from_array(np.zeros_like(b0), "sh4.b")
        c = from_array(c0, "sh4.c")
        d = from_array(np.zeros_like(c0), "sh4.d")
        bad, good = make_gol_oob_kernel(), make_gol_kernel()
        sched.analyze_call(bad, *gol_containers(a, b, variant="naive"))
        sched.analyze_call(good, *gol_containers(c, d, boundary=WRAP))
        sched.invoke(bad, *gol_containers(a, b, variant="naive"))
        clean = sched.invoke(good, *gol_containers(c, d, boundary=WRAP))
        with pytest.raises(OutOfPatternReadError):
            sched.wait_all()
        assert clean.complete
        assert sched.violations  # one per device that ran the bad offset
        assert all(
            isinstance(e, OutOfPatternReadError) for e in sched.violations
        )
        sched.wait_all()  # already raised: not again
        sched.gather(d)
        assert (d.host == gol_reference_step(c0, wrap=True)).all()

    def test_default_scheduler_does_not_sanitize(self):
        """Without sanitize=True the OOB kernel still faults device-side
        (DeviceError), not with a sanitizer report."""
        b0 = board(seed=2)
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        a = from_array(b0, "sh3.a")
        b = from_array(np.zeros_like(b0), "sh3.b")
        k = make_gol_oob_kernel()
        sched.analyze_call(k, *gol_containers(a, b, variant="naive"))
        sched.invoke(k, *gol_containers(a, b, variant="naive"))
        with pytest.raises(Exception) as ei:
            sched.wait_all()
        assert not isinstance(ei.value, OutOfPatternReadError)
