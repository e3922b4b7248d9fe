"""Compiled eager calls against the replay (DESIGN.md §7 "Compiled calls").

A steady invoke of a bound record runs as one generated function
(``repro.core.compiled_call``) instead of ``Scheduler._replay``. Here the
``node_eager`` mix (a GoL ping-pong, a histogram with gathers and a
chained SGEMM through ``invoke_unmodified``) runs three times: as it is,
with the generator patched to compile nothing (every invoke replays) and
with ``plan_cache=False``. The runs must queue the same commands in the
same order on every stream, with the same events, origins and lowered
opcodes, and leave the same trace rows in order, times, monitor state,
handles and host arrays.

The cases the compiled call leaves to the replay (an armed fault plan,
memory pressure, the sanitizer, the mitigator, a capture in progress) are
checked by count, and against the oracle; so is a graph launch between
compiled calls on the same datums.
"""

import dataclasses
import re

import numpy as np
import pytest

import repro.core.compiled_call as compiled_call
from repro.core import Matrix, Scheduler, Vector
from repro.core.graph import Call, Loop
from repro.hardware import GTX_780
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
)
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.sim import FaultPlan, SimNode, TransferFault
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)
from repro.sim.device import EngineState

#: Per-device split weights of the weighted cases (quantized, as the
#: straggler feedback loop sets them).
WEIGHTS = (16, 4, 9, 16)
ITERS = 12
GATHER_EVERY = 5


def _mask(label: str) -> str:
    return re.sub(r"#\d+", "#", label)


class Mix:
    """The ``node_eager`` mix on ``gpus`` GPUs: functional boards of
    ``n``^2 with seeded contents, or timing-only. Every drain goes
    through :meth:`drain`, which logs the queued commands first."""

    def __init__(self, gpus=4, n=256, functional=True, weighted=False,
                 plan_cache=True, spec=GTX_780, faults=None, gemm=True,
                 **sched_kw):
        self.node = SimNode(spec, gpus, functional=functional, faults=faults)
        self.base = Event().seq
        s = self.sched = Scheduler(self.node, plan_cache=plan_cache,
                                   **sched_kw)
        if weighted:
            s._weights = WEIGHTS[:gpus]
        self.gol, self.hk = make_gol_kernel(), make_histogram_kernel("maps")
        self.gemm = make_sgemm_routine()
        self.boards = [Matrix(n, n, np.uint8, "gol.a"),
                       Matrix(n, n, np.uint8, "gol.b")]
        self.image = Matrix(n, n, np.uint8, "hist.image")
        self.hist = Vector(256, np.int32, "hist.out")
        self.b = Matrix(n, n, np.float32, "gemm.B")
        self.xs = [Matrix(n, n, np.float32, "gemm.X"),
                   Matrix(n, n, np.float32, "gemm.Y")]
        if functional:
            rng = np.random.default_rng(3)
            self.boards[0].bind((rng.random((n, n)) < 0.35).astype(np.uint8))
            self.boards[1].bind(np.zeros((n, n), np.uint8))
            self.image.bind(rng.integers(0, 256, (n, n)).astype(np.uint8))
            self.hist.bind(np.zeros(256, np.int32))
            self.b.bind((rng.standard_normal((n, n)) / n).astype(np.float32))
            self.xs[0].bind(rng.standard_normal((n, n)).astype(np.float32))
            self.xs[1].bind(np.zeros((n, n), np.float32))
        self.grid = histogram_grid(self.image)
        self.hargs = histogram_containers(self.image, self.hist)
        a, c = self.boards
        x, y = self.xs
        s.analyze_call(self.gol, *gol_containers(a, c))
        s.analyze_call(self.gol, *gol_containers(c, a))
        s.analyze_call(self.hk, *self.hargs, grid=self.grid)
        #: The datums the mix runs on, in a fixed order.
        self.datums = [a, c, self.image, self.hist]
        if gemm:
            s.analyze_call(self.gemm, *sgemm_containers(x, self.b, y))
            s.analyze_call(self.gemm, *sgemm_containers(y, self.b, x))
            self.datums += [self.b, x, y]
        else:
            self.gemm = None
        self.queued: list = []
        self.handles: list = []

    def step(self, i: int) -> None:
        s, g, x = self.sched, self.boards, self.xs
        self.handles.append(
            s.invoke(self.gol, *gol_containers(g[i % 2], g[(i + 1) % 2])))
        self.handles.append(s.invoke(self.hk, *self.hargs, grid=self.grid))
        if i % GATHER_EVERY == GATHER_EVERY - 1:
            s.gather_async(self.hist)
        if self.gemm is not None:
            self.handles.append(s.invoke_unmodified(
                self.gemm,
                *sgemm_containers(x[i % 2], self.b, x[(i + 1) % 2])))

    def drain(self) -> None:
        self.queued.append([
            [_command(cmd) for cmd in stream.commands]
            for stream in self.node.streams
        ])
        self.sched.wait_all()

    def run(self, iters=ITERS, drain_every=2) -> "Mix":
        for i in range(iters):
            self.step(i)
            if i % drain_every == drain_every - 1:
                self.drain()
        last = iters % 2
        for datum in (self.hist, self.boards[last], self.xs[last]):
            if datum in self.datums:
                self.sched.gather_async(datum)
        self.drain()
        return self

    # -- observables ----------------------------------------------------------
    def ev(self, e):
        return None if e is None else (e.seq - self.base, e.recorded_at)

    def canon(self, x):
        """Events as creation offsets and times, labels masked, engines
        and payloads by name and presence."""
        if isinstance(x, Event):
            return self.ev(x)
        if isinstance(x, EngineState):
            return x.name
        if isinstance(x, str):
            return _mask(x)
        if isinstance(x, (tuple, list)):
            return type(x)(self.canon(y) for y in x)
        if callable(x):
            return "payload"
        return x

    def commands(self) -> list:
        return self.canon(self.queued)

    def trace(self) -> list:
        return [
            (r.kind, _mask(r.label), r.device, r.start, r.end, r.nbytes, r.src)
            for r in self.node.trace
        ]

    def monitor(self, sids=True) -> list:
        """Each datum's monitor state, in datum order."""
        states = self.sched.monitor.states()
        out = []
        for d in self.datums:
            st = states[id(d)]
            out.append((
                st.sid if sids else None,
                [(loc, [(i.rect, self.ev(i.event)) for i in insts])
                 for loc, insts in st.up_to_date.items()],
                st.agg_mode, self.canon(list(st.agg_sources.items())),
                st.agg_lost,
                {loc: [self.ev(e) for e in r]
                 for loc, r in st.pending_reads.items()},
                dict(st.read_marks), st.stamp is None,
            ))
        return out

    def hosts(self) -> list:
        return [None if d.host is None else d.host.tobytes()
                for d in self.datums]

    def handle_events(self) -> list:
        return [[self.ev(e) for e in h.events] for h in self.handles]


def _command(cmd) -> tuple:
    """One queued command: its type, host time, label, event, sizes,
    lowered opcode and, for a segment copy, its retry origin."""
    row = (type(cmd).__name__, cmd.earliest_start)
    if type(cmd) is EventWait:
        return row + (cmd.event,)
    if type(cmd) is EventRecord:
        return row + (cmd.label, cmd.event)
    if type(cmd) in (KernelLaunch, HostOp):
        return row + (cmd.label, cmd.duration, cmd.payload is None, cmd.op)
    assert type(cmd) is Memcpy
    o = cmd.origin
    origin = None if o is None else (
        o.datum.name, tuple(o.op), o.done_event, o.attempt,
        o.payload_factory, o.alarmed,
    )
    op = cmd.op  # link channels are keyed by object ids: costs only
    op = op[:3] + (tuple(cost for _, cost in op[3]),) + op[4:]
    return row + (cmd.label, cmd.src, cmd.dst, cmd.nbytes,
                  cmd.payload is None, op, origin)


def generator_off(monkeypatch) -> None:
    monkeypatch.setattr(compiled_call, "lower", lambda *args: None)


class Spy:
    """Counts replays and the replay's copy planning and enqueueing,
    apart for gathers, and the compiled calls that ran."""

    def __init__(self, monkeypatch):
        from repro.core.scheduler import Scheduler as S

        self.counts = dict.fromkeys(
            ("replay", "copy_ops", "enqueue_copy", "gather_copy_ops",
             "gather_enqueue_copy", "compiled"), 0)
        self.gathering = False

        def wrap(name, fn, counted):
            def spy(sched, *args, **kwargs):
                if counted == "gather":
                    self.gathering, was = True, self.gathering
                    try:
                        return fn(sched, *args, **kwargs)
                    finally:
                        self.gathering = was
                out = fn(sched, *args, **kwargs)
                if counted == "compiled":
                    self.counts[counted] += out is not None
                else:
                    key = ("gather_" if self.gathering else "") + counted
                    self.counts[key] += 1
                return out
            monkeypatch.setattr(S, name, spy)

        wrap("_replay", S._replay, "replay")
        wrap("_copy_ops", S._copy_ops, "copy_ops")
        wrap("_enqueue_copy", S._enqueue_copy, "enqueue_copy")
        wrap("_gather_events", S._gather_events, "gather")
        wrap("_compiled", S._compiled, "compiled")

    def take(self) -> dict:
        out = dict(self.counts)
        for k in self.counts:
            self.counts[k] = 0
        return out


def assert_same(a: Mix, b: Mix, sids=True) -> None:
    assert a.commands() == b.commands()
    assert a.trace() == b.trace()
    assert a.node.time == b.node.time
    assert a.node.host_time == b.node.host_time
    assert a.handle_events() == b.handle_events()
    assert a.monitor(sids) == b.monitor(sids)
    assert a.hosts() == b.hosts()
    assert a.node.engine.commands_executed == b.node.engine.commands_executed


def _oracles(monkeypatch, **kw) -> tuple[Mix, Mix]:
    uncached = Mix(plan_cache=False, **kw).run()
    with monkeypatch.context() as m:
        generator_off(m)
        replayed = Mix(**kw).run()
    return uncached, replayed


@pytest.mark.parametrize("functional", [True, False],
                         ids=["functional", "timing"])
@pytest.mark.parametrize("weighted", [False, True], ids=["even", "weighted"])
@pytest.mark.parametrize("gpus", [1, 2, 3, 4])
def test_node_eager_mix_equals_the_replay(monkeypatch, gpus, weighted,
                                          functional):
    kw = dict(gpus=gpus, weighted=weighted, functional=functional,
              n=256 if functional else 1024)
    uncached, replayed = _oracles(monkeypatch, **kw)
    spy = Spy(monkeypatch)
    compiled = Mix(**kw).run()
    counts = spy.take()
    # Each record replays its first sight and its first hit under each
    # state tuple (the histogram has two: gathered or not); the rest of
    # the mix's invokes are compiled calls.
    assert counts["compiled"] > ITERS
    assert counts["compiled"] + counts["replay"] == 3 * ITERS
    assert_same(compiled, replayed)
    assert_same(compiled, uncached, sids=False)
    if functional:
        n, last = 256, ITERS % 2
        rng = np.random.default_rng(3)
        board = (rng.random((n, n)) < 0.35).astype(np.uint8)
        for _ in range(ITERS):
            board = gol_reference_step(board)
        assert np.array_equal(compiled.boards[last].host, board)
        assert np.array_equal(
            compiled.hist.host,
            np.bincount(compiled.image.host.ravel(), minlength=256))


def test_steady_window_takes_no_replay(monkeypatch):
    mix = Mix(functional=False, n=1024)
    for i in range(2 * GATHER_EVERY):  # both histogram state tuples twice
        mix.step(i)
    mix.drain()
    spy = Spy(monkeypatch)
    for i in range(2 * GATHER_EVERY, 2 * GATHER_EVERY + 20):
        mix.step(i)
    mix.drain()
    counts = spy.take()
    assert counts["compiled"] == 60
    assert counts["replay"] == counts["copy_ops"] == 0
    assert counts["enqueue_copy"] == 0


def test_a_call_structure_compiles_once_per_node(monkeypatch):
    # Two schedulers on one node, one after the other: the second binds
    # the first one's code objects.
    compiles = []
    real = compile

    def counting(*args, **kwargs):
        compiles.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(compiled_call, "compile", counting, raising=False)
    node = SimNode(GTX_780, 4, functional=False)
    k = make_gol_kernel()
    per_scheduler = []
    for _ in range(3):
        sched = Scheduler(node)
        a, b = Matrix(512, 512, np.uint8, "A"), Matrix(512, 512, np.uint8, "B")
        loop = Loop.declare(sched, [Call(k, gol_containers(a, b)),
                                    Call(k, gol_containers(b, a))])
        for i in range(8):
            loop.step(i)
        sched.wait_all()
        sched.release()
        per_scheduler.append(len(compiles))
        compiles.clear()
    assert per_scheduler[0] > 0
    assert per_scheduler[1:] == [0, 0]


# -- the replay's cases ---------------------------------------------------------
def _replays_every_invoke(monkeypatch, oracle_kw, **kw) -> Mix:
    """Run the mix under ``kw``: every invoke replays, and the results
    equal the uncached run under ``oracle_kw``."""
    uncached = Mix(plan_cache=False, **oracle_kw).run()
    spy = Spy(monkeypatch)
    mix = Mix(**kw).run()
    counts = spy.take()
    assert counts["compiled"] == 0
    assert counts["replay"] >= len(mix.handles)
    assert mix.trace() == uncached.trace()
    assert mix.node.time == uncached.node.time
    assert mix.hosts() == uncached.hosts()
    assert mix.monitor(sids=False) == uncached.monitor(sids=False)
    return mix


def test_armed_idle_fault_plan_replays(monkeypatch):
    def idle():  # a link fault on a dispatch that never comes
        return FaultPlan(transfer_faults=[TransferFault(src=3, dst=0,
                                                        nth=10**9)])

    _replays_every_invoke(monkeypatch, dict(faults=idle()), faults=idle())


def test_transient_transfer_fault_replays_while_armed(monkeypatch):
    def plan():
        return FaultPlan(transfer_faults=[TransferFault(src=1, dst=0,
                                                        nth=8)])

    uncached = Mix(plan_cache=False, faults=plan()).run(iters=24)
    calls = []
    real = Scheduler._compiled

    def logged(sched, task, rec):
        armed = sched.node.faults.armed(sched.node.time)
        out = real(sched, task, rec)
        calls.append((armed, out is not None))
        return out

    monkeypatch.setattr(Scheduler, "_compiled", logged)
    mix = Mix(faults=plan()).run(iters=24)
    assert mix.node.faults.transfer_faults_fired == 1
    assert not any(armed and compiled for armed, compiled in calls)
    assert any(armed for armed, _ in calls)
    assert any(compiled for _, compiled in calls)  # calm again: compiled
    assert mix.trace() == uncached.trace()
    assert mix.node.time == uncached.node.time
    assert mix.hosts() == uncached.hosts()
    assert mix.monitor(sids=False) == uncached.monitor(sids=False)


def test_memory_pressure_replays(monkeypatch):
    # The SGEMM's B is needed whole on every device, so it cannot chunk.
    ample = Mix(gemm=False).run()
    peak = max(r["peak"] for r in ample.node.memory_report().values())
    spec = dataclasses.replace(GTX_780, global_memory_bytes=int(peak * 0.3))
    mix = _replays_every_invoke(monkeypatch, dict(spec=spec, gemm=False),
                                spec=spec, gemm=False)
    assert mix.node.trace.matching("evict:") or \
        mix.node.trace.matching("#chunk")
    last = ITERS % 2  # the gathered outputs (salvage writes the others)
    assert np.array_equal(mix.boards[last].host, ample.boards[last].host)
    assert np.array_equal(mix.hist.host, ample.hist.host)


def test_sanitizer_replays(monkeypatch):
    mix = _replays_every_invoke(monkeypatch, dict(sanitize=True),
                                sanitize=True)
    assert mix.sched.violations == []


def test_mitigator_replays(monkeypatch):
    def plan():
        return FaultPlan(mitigate_stragglers=True)

    mix = _replays_every_invoke(monkeypatch, dict(faults=plan()),
                                faults=plan())
    assert mix.sched._mitigator is not None


def test_capture_in_progress_replays(monkeypatch):
    mix = Mix(functional=False, n=1024)
    mix.run(iters=6)  # every record compiled
    spy = Spy(monkeypatch)
    with mix.sched.capture():
        mix.step(6)
        mix.step(7)
    counts = spy.take()
    assert counts["compiled"] == 0 and counts["replay"] == 6


# -- graph launches between compiled calls ------------------------------------------
def _gol_graph_run(n=256, laps=3):
    node = SimNode(GTX_780, 4, functional=True)
    sched = Scheduler(node)
    board = (np.random.default_rng(5).random((n, n)) < 0.35).astype(np.uint8)
    a = Matrix(n, n, np.uint8, "A").bind(board.copy())
    b = Matrix(n, n, np.uint8, "B").bind(np.zeros_like(board))
    k = make_gol_kernel()
    ping, pong = gol_containers(a, b), gol_containers(b, a)
    sched.analyze_call(k, *ping)
    sched.analyze_call(k, *pong)
    stamped = []
    for _ in range(3):  # records seen, hit and compiled
        sched.invoke(k, *ping)
        sched.invoke(k, *pong)
    sched.wait_all()
    with sched.capture() as g:
        sched.invoke(k, *ping)
        sched.invoke(k, *pong)
    for _ in range(laps):
        g.launch(1)
        stamped.append([st.stamp is not None
                        for st in sched.monitor.states().values()])
        sched.invoke(k, *ping)  # compiled, on the graph's exit state
        sched.invoke(k, *pong)
        stamped.append([st.stamp is not None
                        for st in sched.monitor.states().values()])
        sched.wait_all()
    sched.gather(a)
    return a.host.copy(), node, sched, g, stamped


def test_graph_launch_between_compiled_calls(monkeypatch):
    with monkeypatch.context() as m:
        generator_off(m)
        ref, ref_node, *_ = _gol_graph_run()
    spy = Spy(monkeypatch)
    out, node, sched, g, stamped = _gol_graph_run()
    assert spy.take()["compiled"] > 0
    assert g.fast_launches > 0
    # A launch stamps the datums with its exit; the compiled calls after
    # it clear the stamps, as the replay's monitor updates do.
    assert all(any(s) for s in stamped[0::2])
    assert not any(any(s) for s in stamped[1::2])
    assert np.array_equal(out, ref)
    assert node.time == ref_node.time
    norm = [(r.kind, _mask(r.label), r.device, r.start, r.end)
            for r in node.trace]
    assert norm == [(r.kind, _mask(r.label), r.device, r.start, r.end)
                    for r in ref_node.trace]
    expected = (np.random.default_rng(5).random((256, 256)) < 0.35).astype(
        np.uint8)
    for _ in range(6 + 2 + 3 * 4):
        expected = gol_reference_step(expected)
    assert np.array_equal(out, expected)
