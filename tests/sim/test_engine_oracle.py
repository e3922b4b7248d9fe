"""The engine's eager dispatch against its reference (``engine_oracle``).

Each program runs twice, on twin nodes: once through ``Engine.run`` and
once through the reference body it replaced. Every run's result or
raised error (type, time, command label), the engine state it left (the
clock, counters, occupancy, dead map, stream cursors and the commands
left queued), the trace rows and every event's recording time must be
equal. Recovery re-runs from the state an error left, so a divergence
there shows up in every later run.
"""

import random

import numpy as np
import pytest

from repro.core import Matrix, Scheduler, Vector
from repro.hardware import GTX_780, HOST
from repro.kernels.game_of_life import gol_containers, make_gol_kernel
from repro.kernels.histogram import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
)
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim import (
    DeviceFailure,
    FaultPlan,
    SimNode,
    Straggler,
    TransferFault,
)
from tests.sim import engine_oracle

GPUS = 4


def program(node, n=128, iters=9, wait_every=0, gather_every=3,
            checkpoint=False):
    """GoL ping-pong, a histogram and a chained SGEMM (the node_eager
    mix). ``wait_every`` waits on a GoL handle (a partial drain) every
    that many iterations; the histogram is gathered (a full drain) every
    ``gather_every``, with the board and the SGEMM output too when
    ``checkpoint`` (a device loss then has a host replica to recover
    from). Returns the host results."""
    sched = Scheduler(node)
    gol, hist_k, gemm = make_gol_kernel(), make_histogram_kernel("maps"), \
        make_sgemm_routine()
    boards = [Matrix(n, n, np.uint8, "gol.a"), Matrix(n, n, np.uint8, "gol.b")]
    image = Matrix(n, n, np.uint8, "hist.image")
    hist = Vector(256, np.int32, "hist.out")
    b = Matrix(n, n, np.float32, "gemm.B")
    xs = [Matrix(n, n, np.float32, "gemm.X"), Matrix(n, n, np.float32, "gemm.Y")]
    if node.functional:
        rng = np.random.default_rng(5)
        boards[0].bind((rng.random((n, n)) < 0.35).astype(np.uint8))
        boards[1].bind(np.zeros((n, n), np.uint8))
        image.bind(rng.integers(0, 256, (n, n)).astype(np.uint8))
        hist.bind(np.zeros(256, np.int32))
        b.bind((rng.standard_normal((n, n)) / n).astype(np.float32))
        xs[0].bind(rng.standard_normal((n, n)).astype(np.float32))
        xs[1].bind(np.zeros((n, n), np.float32))
    grid = histogram_grid(image)
    hargs = histogram_containers(image, hist)
    sched.analyze_call(gol, *gol_containers(*boards))
    sched.analyze_call(gol, *gol_containers(*boards[::-1]))
    sched.analyze_call(hist_k, *hargs, grid=grid)
    sched.analyze_call(gemm, *sgemm_containers(xs[0], b, xs[1]))
    sched.analyze_call(gemm, *sgemm_containers(xs[1], b, xs[0]))
    for i in range(iters):
        h = sched.invoke(gol, *gol_containers(boards[i % 2], boards[1 - i % 2]))
        sched.invoke(hist_k, *hargs, grid=grid)
        if wait_every and i % wait_every == wait_every - 1:
            sched.wait(h)
        sched.invoke_unmodified(
            gemm, *sgemm_containers(xs[i % 2], b, xs[1 - i % 2])
        )
        if gather_every and i % gather_every == gather_every - 1:
            if checkpoint:
                sched.gather_async(boards[1 - i % 2])
                sched.gather_async(xs[1 - i % 2])
            sched.gather(hist)
    for d in (boards[iters % 2], xs[iters % 2], hist):
        sched.gather_async(d)
    sched.wait_all()
    if not node.functional:
        return None
    return [d.host.copy() for d in (boards[iters % 2], xs[iters % 2], hist)]


def twin(make_faults=FaultPlan, functional=True, **kw):
    """Run ``program`` on a node dispatching through ``Engine.run`` and on
    one dispatching through the reference, and assert they agree."""
    sides = []
    for oracle in (False, True):
        fp = make_faults()
        node = SimNode(GTX_780, GPUS, functional=functional, faults=fp)
        if oracle:
            engine_oracle.install(node)
        rec = engine_oracle.Recorder(node)
        out = program(node, **kw)
        sides.append((rec, out, node, fp))
    (new, out_n, node_n, fp_n), (ref, out_r, node_r, fp_r) = sides
    assert new.log == ref.log
    assert new.rows() == ref.rows()
    assert new.recorded() == ref.recorded()
    assert node_n.engine.commands_executed == node_r.engine.commands_executed
    assert node_n.time == node_r.time
    for a, b in zip(out_n or (), out_r or ()):
        assert np.array_equal(a, b)
    for attr in ("transfer_faults_fired", "speculations_fired",
                 "hedges_fired", "alloc_faults_fired"):
        assert getattr(fp_n, attr) == getattr(fp_r, attr)
    return new, fp_n


def makespan(**kw) -> float:
    node = SimNode(GTX_780, GPUS, functional=False)
    program(node, **kw)
    return node.time


class TestDrains:
    def test_node_eager_shaped_drains(self):
        rec, _ = twin(functional=False, n=512, iters=12)
        assert all(kind == "ok" for kind, *_ in rec.log)
        assert len(rec.log) >= 4

    def test_functional_drains(self):
        twin()

    @pytest.mark.parametrize("wait_every", [1, 2])
    def test_partial_drains_leave_the_same_commands_queued(self, wait_every):
        rec, _ = twin(wait_every=wait_every, gather_every=0)
        # Some wait left later work queued (the logged state holds it).
        assert any(
            any(queued for *_, queued in state[-1])
            for kind, _, _, state in rec.log
        )


class TestFaults:
    def test_dead_device(self):
        t = makespan(gather_every=1, checkpoint=True)
        rec, _ = twin(lambda: FaultPlan(
            device_failures=[DeviceFailure(device=2, at_time=0.4 * t)]
        ), gather_every=1, checkpoint=True)
        assert [e for e in rec.log if e[0] == "DeviceFault"]

    def test_transient_transfer_faults(self):
        rec, fp = twin(lambda: FaultPlan(
            seed=3,
            transfer_faults=[
                TransferFault(src=0, dst=1, nth=2, count=2),
                TransferFault(src=HOST, dst=3, nth=1),
            ],
            transfer_fault_rate=0.05,
        ))
        assert fp.transfer_faults_fired >= 3
        assert [e for e in rec.log if e[0] == "TransientTransferError"]

    def test_exhausted_transfer_fault(self):
        # The plan goes quiet after its one fault: later runs take the
        # unchecked path, and still agree.
        _, fp = twin(lambda: FaultPlan(
            transfer_faults=[TransferFault(src=0, dst=1, nth=1)]
        ))
        assert fp.transfer_faults_fired == 1
        assert not fp.armed(0.0)

    def test_watchdog_and_hedge_alarms(self, monkeypatch):
        monkeypatch.setattr(FaultPlan, "max_speculations", 1000)
        rec, fp = twin(lambda: FaultPlan(
            stragglers=[
                Straggler(device=1, compute_factor=4.0),
                Straggler(device=2, bandwidth_factor=6.0),
            ],
            mitigate_stragglers=True,
        ), n=256, wait_every=1, gather_every=1, checkpoint=True)
        assert fp.speculations_fired >= 1
        assert fp.hedges_fired >= 1
        assert [e for e in rec.log if e[0] == "StragglerAlarm"]

    def test_straggler_window_heals_mid_run(self):
        t = makespan()
        twin(lambda: FaultPlan(stragglers=[
            Straggler(device=1, compute_factor=3.0, end=0.3 * t),
            Straggler(device=3, bandwidth_factor=2.0, start=0.1 * t,
                      end=0.5 * t),
        ]))


def test_record_waits_its_turn_at_a_tie():
    # Lane a waits on a record of lane c; lane b's kernel is ready at the
    # record's time on the same device as a's. Stream ids order a < b < c,
    # so the heap pops b's kernel, then c's record, then a's kernel.
    # Recording early (before b's turn) would let a's kernel take the
    # device first.
    sides = []
    for oracle in (False, True):
        node = SimNode(GTX_780, 2, functional=False)
        if oracle:
            engine_oracle.install(node)
        rec = engine_oracle.Recorder(node)
        a, b, c = (node.new_stream(d) for d in (0, 0, 1))
        node.launch_kernel(c, 1e-3, label="k0")
        ev = node.record_event(c, "r")
        node.wait_event(a, ev)
        node.launch_kernel(a, 1e-3, label="kw")
        node.host_advance(1e-3 + node.interconnect.kernel_launch_latency)
        node.launch_kernel(b, 1e-3, label="ke")
        node.run()
        sides.append(rec)
    new, ref = sides
    assert new.rows() == ref.rows()
    assert [r[1] for r in ref.rows()] == ["k0", "ke", "kw"]


def random_program(node, rng: random.Random, n_cmds: int):
    """Random kernels, copies, host ops, records and waits over a few
    streams. Durations and sizes come from small sets so that ready times
    tie often. A wait names an event recorded earlier in program order,
    so nothing deadlocks. Returns the events."""
    streams = [node.new_stream(d) for d in range(node.num_gpus)
               for _ in range(2)] + [node.new_stream(HOST)]
    events = []
    for _ in range(n_cmds):
        s = rng.choice(streams)
        k = rng.random()
        if node.graph_recorder is None and rng.random() < 0.3:
            node.host_advance(rng.choice([0.0, 1e-6, 2e-6]))
        if k < 0.25 and s.device != HOST:
            node.launch_kernel(s, rng.choice([1e-6, 2e-6, 4e-6]),
                               label=f"k{len(events)}")
        elif k < 0.5:
            ends = list(range(node.num_gpus)) + [HOST]
            src, dst = rng.choice(ends), rng.choice(ends)
            node.memcpy(s, src, dst, rng.choice([4096, 65536, 1 << 20]),
                        label=f"c{len(events)}",
                        pageable=rng.random() < 0.2)
        elif k < 0.6:
            node.host_op(s, rng.choice([1e-6, 3e-6]), label="h")
        elif k < 0.8 or not events:
            events.append(node.record_event(s, f"e{len(events)}"))
        else:
            node.wait_event(s, rng.choice(events))
    return events


@pytest.mark.parametrize("seed", range(12))
def test_random_programs_with_early_stops(seed):
    sides = []
    for oracle in (False, True):
        node = SimNode(GTX_780, 3, functional=False)
        if oracle:
            engine_oracle.install(node)
        rec = engine_oracle.Recorder(node)
        rng = random.Random(seed)
        for _ in range(3):
            events = random_program(node, rng, 80)
            # An early stop on a few events, then the rest.
            node.run_until(rng.sample(events, min(3, len(events))))
            node.run()
        sides.append(rec)
    new, ref = sides
    assert new.log == ref.log
    assert new.rows() == ref.rows()
