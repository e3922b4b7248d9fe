"""Compiled graph segments against the heap interpreter (DESIGN.md §12).

A one-lap launch runs each segment of its graph through straight-line
code compiled from the order ``Engine._dispatch`` took on the segment's
first one-lap launch (``repro.sim.segment``). Here the same scenarios run
twice: as they are, and with ``compile_segment`` patched to compile
nothing, so every launch goes through the interpreter. After every
``run_graph`` the two runs must leave identical event times, engine
clock, command count, stream cursors, channel occupancy and engine busy
state, and the scenarios' own observables (trace rows, boards, answers,
monitor state, host clocks) must be equal too:

* the transition graphs of ``tests/core/test_graph.py``: owed region
  marks, and whole marks with host syncs (segments that read event times
  an earlier segment recorded);
* cluster ticks with a crash, its recovery and a re-slab on rejoin;
* functional serving, whose layers run numpy payloads.

Engine-level segments are launched the way the graph's generated launch
does it (:func:`_launch`), compiled, interpreted and as the same commands
dispatched eagerly on the same streams; all three must leave the same
trace rows and engine state. They pin the rules the compiled code must
keep: a record waits its turn at an exact ready-time tie, as every other
head does, and a launch whose heap decisions differ from the compiled
order fails a guard, writes nothing and is dispatched by the interpreter,
with one call of the compiled code.
"""

import random

import numpy as np

import repro.sim.engine as engine_mod
from repro.cluster import ClusterMaster
from repro.hardware import GTX_780, HOST
from repro.sim import SimNode
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)
from repro.sim.engine import Engine
from repro.sim.segment import GraphSegment
from tests.cluster import test_tick_cache as tick_cache
from tests.serving import test_graph_serving as graph_serving

from . import test_graph as graph_tests


def _engine_state(eng: Engine, segment: GraphSegment, ev_time) -> tuple:
    return (
        list(ev_time),
        eng.now,
        eng.commands_executed,
        [s.cursor for s in segment.streams],
        list(eng._channel_busy.values()),
        [(e.busy_until, e.busy_time)
         for d in eng.devices for e in d.engines()],
        (eng.host_engine.busy_until, eng.host_engine.busy_time),
    )


def _instrument(monkeypatch, compiled: bool) -> tuple[list, list]:
    """Log the engine state after every segment dispatch (a
    ``run_graph``, or a compiled run the launch called directly), and
    collect every segment a one-lap launch recorded; with ``compiled`` off
    none of them gets code. Returns ``(log, segments)``."""
    log: list = []
    segments: list = []
    run_graph = Engine.run_graph
    compile_segment = engine_mod.compile_segment

    def logged(self, segment, *args):
        ev_time = run_graph(self, segment, *args)
        log.append(_engine_state(self, segment, ev_time))
        return ev_time

    def collected(engine, segment, order):
        segments.append(segment)
        run = compile_segment(engine, segment, order) if compiled else None
        if run is None:
            return None

        def logged_run(eng, ck, bd, cs, ev):
            ok = run(eng, ck, bd, cs, ev)
            if ok:
                log.append(_engine_state(eng, segment, ev))
            return ok

        return logged_run

    monkeypatch.setattr(Engine, "run_graph", logged)
    monkeypatch.setattr(engine_mod, "compile_segment", collected)
    return log, segments


def _twins(monkeypatch, scenario):
    """``scenario(monkeypatch)`` compiled and interpreted, each with its
    launch log; returns the two results. The compiled run must have run
    compiled code and missed no guard, and both logs must be equal."""
    sides = []
    for compiled in (True, False):
        with monkeypatch.context() as mp:
            log, segments = _instrument(mp, compiled)
            out = scenario(mp)
        runs = sum(s.compiled_runs for s in segments)
        misses = sum(s.guard_misses for s in segments)
        sides.append((out, log, runs, misses))
    (fast, fast_log, runs, misses), (slow, slow_log, slow_runs, _) = sides
    assert runs > 0 and misses == 0
    assert slow_runs == 0
    assert len(fast_log) == len(slow_log) > runs
    assert fast_log == slow_log
    return fast, slow


class TestScenarios:
    def test_transition_ticks_with_owed_marks(self, monkeypatch):
        fast, slow = _twins(
            monkeypatch,
            lambda mp: graph_tests.TestTransitionGraphs._ticks(
                "graph", owed=True
            ),
        )
        # Time, trace rows, command count, monitor state with event
        # times, host and engine clocks after every tick, LRU stamps.
        assert fast[:6] == slow[:6]

    def test_marks_and_syncs(self, monkeypatch):
        ops = graph_tests.TestHostOps
        for period in (ops._serve, ops._late_mark):
            fast, slow = _twins(
                monkeypatch, lambda mp: ops._rounds("graph", period)
            )
            g = fast[-1]
            assert len(g._segments) > 1
            assert np.array_equal(fast[0], slow[0])
            assert fast[1:6] == slow[1:6]

    def test_cluster_crash_recovery_reslab(self, monkeypatch):
        board = tick_cache._board()
        span = ClusterMaster(
            GTX_780, tick_cache.NODES, tick_cache.GPUS, board, tick_cache.KERNEL
        ).run(tick_cache.TICKS)
        args = (board, 2, 0.40 * span, 0.55 * span)
        fast, slow = _twins(
            monkeypatch, lambda mp: tick_cache._elastic_run(*args)[0]
        )
        assert fast["counters"][:2] == (1, 1)
        assert np.array_equal(fast.pop("board"), slow.pop("board"))
        assert fast == slow

    def test_functional_serving(self, monkeypatch):
        cfg = graph_serving.CFG
        assert cfg.functional
        fast, slow = _twins(
            monkeypatch,
            lambda mp: graph_serving._serve(cfg, mp, eager=False),
        )
        (fast_rep, fast_rows), (slow_rep, slow_rows) = fast, slow
        assert fast_rep.graph_launches > 0
        assert fast_rep.results_hash() == slow_rep.results_hash()
        assert fast_rep.served == slow_rep.served
        assert fast_rep.makespan == slow_rep.makespan
        assert fast_rows == slow_rows


class TestLaunchCalls:
    """The generated launch is the one caller of a compiled segment:
    ``Engine.run_graph`` only interprets."""

    @staticmethod
    def _laps(monkeypatch, graph: bool, miss: int | None = None):
        """A GoL ping-pong's warm-up and capture (or their eager twin),
        then four one-lap launches. With ``graph``, launch ``miss`` finds a
        compiled segment that fails a guard: its ``run`` is wrapped to
        return False, as a failed guard does before writing anything.
        Returns the board, the time, the trace rows and, per launch, the
        calls of the compiled code and of ``run_graph``, and the
        segment's compiled runs and guard misses."""
        calls = {"run": 0, "run_graph": 0}
        run_graph = Engine.run_graph

        def counted(self, *args):
            calls["run_graph"] += 1
            return run_graph(self, *args)

        monkeypatch.setattr(Engine, "run_graph", counted)
        node, sched, a, b, kernel, ca, cb = graph_tests.gol_setup()

        def period():
            sched.invoke(kernel, *ca)
            sched.invoke(kernel, *cb)

        period()
        sched.wait_all()
        if graph:
            with sched.capture() as g:
                period()
            (segment, _, _), = g._segments
        else:
            sched.wait_all()
            period()
            sched.wait_all()
        counts = []
        for i in range(4):
            calls.update(run=0, run_graph=0)
            if not graph:
                period()
                sched.wait_all()
                continue
            compiled = segment.run
            if compiled is not None:

                def wrapped(*args, compiled=compiled, fail=i == miss):
                    calls["run"] += 1
                    return False if fail else compiled(*args)

                segment.run = wrapped
            g.launch(1)
            if compiled is not None:
                segment.run = compiled
            counts.append((calls["run"], calls["run_graph"],
                           segment.compiled_runs, segment.guard_misses))
        sched.gather_async(a)
        t = sched.wait_all()
        return a.host.copy(), t, graph_tests.norm_trace(node), counts

    def test_a_guard_miss_calls_compiled_code_once(self, monkeypatch):
        """The first one-lap launch records and compiles; a launch that
        runs compiled calls the code once and ``run_graph`` never; a
        guard miss calls the code once, is counted once and is
        interpreted by one ``run_graph``, and the run matches its eager
        twin row for row."""
        with monkeypatch.context() as mp:
            board_e, t_e, rows_e, _ = self._laps(mp, graph=False)
        board_g, t_g, rows_g, counts = self._laps(
            monkeypatch, graph=True, miss=2
        )
        assert counts == [(0, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1),
                          (1, 0, 2, 1)]
        assert np.array_equal(board_e, board_g)
        assert t_e == t_g
        assert rows_e == rows_g


def _op(eng: Engine, cmd, device: int, ck: int) -> tuple:
    """A graph opcode: the engine's lowering with checkpoint ``ck``."""
    low = eng.lower(cmd, device)
    return (low[0], ck, *low[2:])


def _kernel(eng: Engine, label: str, device: int, ck: int) -> tuple:
    return _op(eng, KernelLaunch(label=label, duration=1e-3), device, ck)


def _tie_lanes(node):
    """Lane a waits on lane c's record, and lane b's kernel is ready at
    the record's time on a's device: two sibling kernels of equal
    duration, and stream ids a < b < c."""
    eng = node.engine
    a, b, c = (node.new_stream(d) for d in (0, 0, 1))
    assert a.id < b.id < c.id
    return [
        (a, [(0, 0, 0, 0), _kernel(eng, "kw", 0, 0)]),
        (b, [_kernel(eng, "ke", 0, 1)]),
        (c, [_kernel(eng, "k0", 1, 0), (1, 0, 0)]),
    ]


def _copy_lanes(node):
    """Lane x copies device 0 to the host and records; lane y waits on
    the record and runs a kernel on device 1, where lane z's kernel is
    ready at checkpoint 1."""
    eng = node.engine
    x, y, z = (node.new_stream(d) for d in (0, 1, 1))
    copy = Memcpy(label="d2h", src=0, dst=HOST, nbytes=4096)
    return [
        (x, [_op(eng, copy, 0, 0), (1, 0, 0)]),
        (y, [(0, 0, 0, 0), _kernel(eng, "ky", 1, 0)]),
        (z, [_kernel(eng, "kz", 1, 1)]),
    ]


def _pop_lanes(node):
    """Two one-kernel lanes on device 0: the first pop decides."""
    eng = node.engine
    p, q = node.new_stream(0), node.new_stream(0)
    return [(p, [_kernel(eng, "kp", 0, 0)]), (q, [_kernel(eng, "kq", 0, 1)])]


def _inline_lanes(node):
    """Lane r's second kernel (checkpoint 2) follows its first in-line
    while lane s's kernel (checkpoint 1) is ready later."""
    eng = node.engine
    r, s = node.new_stream(1), node.new_stream(1)
    return [
        (r, [_kernel(eng, "kr1", 1, 0), _kernel(eng, "kr2", 1, 2)]),
        (s, [_kernel(eng, "ks", 1, 1)]),
    ]


def _random_lanes(rng: random.Random):
    """Lanes of a random segment: kernels, copies, host ops, records and
    waits over two streams per GPU and a host stream, with durations and
    sizes from small sets so that ready times tie often, and checkpoints
    0 to 3. A wait names a slot recorded earlier in generation order or
    the constant 0, so nothing deadlocks. About half the segments open with
    a record tie, the shape of :func:`_tie_lanes`: lane 2 records after a
    kernel as long as lane 1's first one, both at checkpoint 0, so the
    record is ready when lane 1's second kernel is, and lane 0, a
    sibling of lane 1 with a lower stream id, waits on the record before
    a kernel of the same duration as that one."""
    cmds = []
    ck, slots = 0, 0
    if rng.random() < 0.5:
        d, e = rng.choice([1e-6, 2e-6]), rng.choice([1e-6, 2e-6])
        cmds += [
            (2, "kernel", 0, d), (2, (1, 0, 0), None, None),
            (1, "kernel", 0, d), (1, "kernel", 0, e),
            (0, (0, 0, 0, 0), None, None), (0, "kernel", 0, e),
        ]
        slots = 1
    for _ in range(rng.randint(4, 16)):
        lane = rng.randrange(5)
        ck = min(3, ck + (rng.random() < 0.3))
        k = rng.random()
        if k < 0.3 and lane < 4:
            cmds.append((lane, "kernel", ck, rng.choice([1e-6, 2e-6])))
        elif k < 0.5:
            src, dst = rng.choice([(0, HOST), (HOST, 1), (0, 1), (1, 0)])
            cmds.append((lane, "copy", ck, (src, dst, rng.choice([4096, 65536]))))
        elif k < 0.6 and lane == 4:
            cmds.append((lane, "host", ck, rng.choice([1e-6, 3e-6])))
        elif k < 0.8 or not slots:
            cmds.append((lane, (1, ck, slots), None, None))
            slots += 1
        else:
            wait = (0, ck, 2, 0) if rng.random() < 0.2 else (
                0, ck, 0, rng.randrange(slots))
            cmds.append((lane, wait, None, None))

    def lanes(node):
        eng = node.engine
        streams = [node.new_stream(d) for d in (0, 0, 1, 1, HOST)]
        progs: list[list] = [[] for _ in streams]
        for i, (lane, kind, ck, arg) in enumerate(cmds):
            device = streams[lane].device
            if kind == "kernel":
                op = _op(eng, KernelLaunch(label=f"k{i}", duration=arg),
                         device, ck)
            elif kind == "copy":
                src, dst, nbytes = arg
                op = _op(eng, Memcpy(label=f"c{i}", src=src, dst=dst,
                                     nbytes=nbytes), device, ck)
            elif kind == "host":
                op = _op(eng, HostOp(label=f"h{i}", duration=arg), device, ck)
            else:
                op = kind
            progs[lane].append(op)
        return [(s, p) for s, p in zip(streams, progs) if p]

    return lanes


def _launch(eng: Engine, segment: GraphSegment, ck, K: int, E: int, bd,
            cs) -> list:
    """A one-lap launch of ``segment`` as the graph's generated launch
    makes it: the compiled dispatch, counted, or the interpreter for a
    segment not compiled yet and after a guard miss. Returns the event
    times."""
    ev_time = [None] * E
    run = segment.run
    if run is None:
        eng.run_graph(segment, 1, ck, K, E, bd, cs, ev_time)
    elif run(eng, ck, bd, cs, ev_time):
        segment.compiled_runs += 1
    else:
        segment.guard_misses += 1
        eng.run_graph(segment, 1, ck, K, E, bd, cs, ev_time)
    return ev_time


#: Opcode -> the eager command class it is the lowering of.
_COMMANDS = {2: KernelLaunch, 3: Memcpy, 4: HostOp}


def _eager(eng: Engine, segment: GraphSegment, ck, E: int, bd, cs) -> list:
    """The eager twin of :func:`_launch`: each opcode of ``segment`` as a
    command on its lane's stream, with its checkpoint as the command's
    earliest start, drained by ``Engine.run``. A wait on a previous-lap
    slot or a constant waits on an event recorded at that time. Returns
    the slots' event times."""
    events = [Event() for _ in range(E)]
    for stream, prog in zip(segment.streams, segment.programs):
        for op in prog:
            at = ck[op[1]]
            if op[0] == 0:
                mode, a = op[2], op[3]
                if mode == 0:
                    event = events[a]
                else:
                    event = Event()
                    event.recorded_at = bd[a] if mode == 1 else cs[a]
                cmd = EventWait(earliest_start=at, event=event)
            elif op[0] == 1:
                cmd = EventRecord(earliest_start=at, event=events[op[2]])
            else:
                cmd = _COMMANDS[op[0]](earliest_start=at)
                cmd.op = (op[0], None, *op[2:])  # the enqueue's lowering
            stream.commands.append(cmd)
    eng.run(segment.streams)
    return [e.recorded_at for e in events]


def _launches(mode: str, monkeypatch, lanes, plans) -> list:
    """One-lap launches of the segment ``lanes(node)`` on a fresh node,
    one per ``(offsets, perturb)`` of ``plans``: with checkpoints at the
    engine clock ``t`` plus ``offsets``, and the constant event time
    ``t`` plus the last offset, after ``perturb(engine, t)`` unless it is
    None. ``mode`` is ``"compiled"``, ``"interpreted"`` (nothing
    compiles) or ``"eager"`` (:func:`_eager`). Returns per launch its
    trace rows, the engine state it left (with the observer calls so
    far), and the segment's compiled runs and guard misses after it."""
    with monkeypatch.context() as mp:
        _instrument(mp, mode == "compiled")
        node = SimNode(GTX_780, 2, functional=False)
        eng = node.engine
        observed: list = []
        eng.observer = lambda *args: observed.append(args)
        segment = GraphSegment(lanes(node))
        slots = 1 + max((op[2] for prog in segment.programs for op in prog
                         if op[0] == 1), default=0)
        out = []
        for offsets, perturb in plans:
            t = eng.now
            if perturb is not None:
                perturb(eng, t)
            before = len(eng.trace)
            ck, bd, cs = [t + o for o in offsets], [0.0] * slots, [t + offsets[-1]]
            if mode == "eager":
                ev_time = _eager(eng, segment, ck, slots, bd, cs)
            else:
                ev_time = _launch(eng, segment, ck, len(offsets), slots, bd, cs)
            out.append((
                [(r.kind, r.label, r.device, r.start, r.end, r.nbytes, r.src)
                 for r in eng.trace.records[before:]],
                (_engine_state(eng, segment, ev_time), list(observed)),
                (segment.compiled_runs, segment.guard_misses),
            ))
        return out


def _twin_launches(monkeypatch, lanes, plans) -> list:
    """:func:`_launches` compiled; the interpreted and the eager twin
    left the same trace rows and engine state after every launch. Returns
    per launch the trace labels and the compiled runs and guard misses."""
    fast = _launches("compiled", monkeypatch, lanes, plans)
    for mode in ("interpreted", "eager"):
        twin = _launches(mode, monkeypatch, lanes, plans)
        assert [rows for rows, _, _ in fast] == [rows for rows, _, _ in twin]
        assert [state for _, state, _ in fast] == [
            state for _, state, _ in twin
        ]
    return [([r[1] for r in rows], counts) for rows, _, counts in fast]


class TestRules:
    def test_random_segments(self, monkeypatch):
        """Random segments, each launched six times with checkpoints that
        tie or spread and now and then a busy copy engine, so that later
        launches take other orders than the first: every launch leaves
        the interpreter's and the eager twin's rows and state, whether it
        ran compiled or missed a guard. About half open with a record
        tie, which a replay that ran records in-line would take in
        another order than its eager twin."""
        rng = random.Random(41)
        runs = misses = 0
        for _ in range(60):
            lanes = _random_lanes(rng)
            plans = []
            for _ in range(6):
                steps = [rng.choice([0.0, 1e-6, 2e-6]) for _ in range(3)]
                offsets = [0.0]
                for step in steps:
                    offsets.append(offsets[-1] + step)
                perturb = None
                if rng.random() < 0.3:
                    d, x = rng.randrange(2), rng.choice([1e-6, 3e-6])

                    def perturb(eng, t, d=d, x=x):
                        eng.devices[d].copy_out.busy_until = t + x
                plans.append((offsets, perturb))
            counts = _twin_launches(monkeypatch, lanes, plans)[-1][1]
            runs += counts[0]
            misses += counts[1]
        assert runs > 100 and misses > 10

    def test_record_waits_its_turn_at_a_tie(self, monkeypatch):
        """c's record is ready when b's kernel is, and b's stream id is
        lower, so the heap pops ``ke`` before the record wakes a and
        ``kw`` runs last: interpreted, compiled and eager alike
        (``test_engine_oracle.test_record_waits_its_turn_at_a_tie``)."""
        runs = _twin_launches(
            monkeypatch, _tie_lanes, [((0.0, 1e-3), None)] * 3
        )
        assert runs == [
            (["k0", "ke", "kw"], (0, 0)),
            (["k0", "ke", "kw"], (1, 0)),
            (["k0", "ke", "kw"], (2, 0)),
        ]

    def test_moved_copy_engine_falls_back(self, monkeypatch):
        """The copy takes microseconds, so ``ky`` runs before ``kz``; the
        second launch starts with device 0's copy-out engine busy for two
        milliseconds, so the record wakes y after z's key and ``kz`` runs
        first. That launch misses a guard, writes nothing and is
        interpreted; the launches after it run compiled again."""

        def busy(eng, t):
            eng.devices[0].copy_out.busy_until = t + 2e-3

        plan = ((0.0, 1e-3), None)
        runs = _twin_launches(
            monkeypatch, _copy_lanes,
            [plan, ((0.0, 1e-3), busy), plan, plan],
        )
        assert runs == [
            (["d2h", "ky", "kz"], (0, 0)),
            (["d2h", "kz", "ky"], (0, 1)),
            (["d2h", "ky", "kz"], (1, 1)),
            (["d2h", "ky", "kz"], (2, 1)),
        ]

    def test_each_guard_kind_falls_back(self, monkeypatch):
        """Moved host checkpoints flip a pop (q's kernel becomes ready
        first) and an in-line run (r's second kernel becomes ready after
        s's): each is caught by its own guard."""
        early, late = (0.0, 1e-6), (1e-6, 0.0)
        runs = _twin_launches(
            monkeypatch, _pop_lanes,
            [(early, None), (late, None), (early, None)],
        )
        assert runs == [
            (["kp", "kq"], (0, 0)),
            (["kq", "kp"], (0, 1)),
            (["kp", "kq"], (1, 1)),
        ]
        near, far = (0.0, 5e-3, 0.0), (0.0, 5e-3, 9e-3)
        runs = _twin_launches(
            monkeypatch, _inline_lanes,
            [(near, None), (far, None), (near, None)],
        )
        assert runs == [
            (["kr1", "kr2", "ks"], (0, 0)),
            (["kr1", "ks", "kr2"], (0, 1)),
            (["kr1", "kr2", "ks"], (1, 1)),
        ]
