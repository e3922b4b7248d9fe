"""Compiled dispatch of iteration-graph segments (DESIGN.md §12).

An iteration graph replays as one or more *segments*: the per-stream
opcode programs it dispatches between two captured host syncs
(:meth:`~repro.sim.engine.Engine.run_graph`). The heap interpreter,
:meth:`~repro.sim.engine.Engine._dispatch`, decides at every step which
lane runs next, by one rule for eager and replayed commands alike. The
first one-lap replay of a segment reports the order it popped lanes in,
and :func:`compile_segment` turns it into straight-line Python for the
graph's later one-lap launches. Float roundings of their absolute times
can flip a tie (none of 47 one-lap launches of the 8K GoL fixed point
kept the first one's order), so the code checks the order as it goes:

* every time is computed in locals with the interpreter's float ``max``
  and ``+`` operations, in its order;
* every heap decision the order relies on is guarded by the comparison
  the heap would make: ``(ready, stream id)`` of the lane that runs
  against that of every lane then in the heap;
* only when every guard passes does the code write back, in dispatch
  order: engine and channel occupancy, stream cursors, event times,
  observer and payload calls, one batch of trace rows, the command count
  and the engine clock. A failed guard has written nothing, and the
  launch dispatches the segment through the interpreter instead.

The source is generated from the segment's *structure* alone: its
opcodes, which ops share an engine or a channel, the order of its stream
ids, and the dispatch order. Every value (streams, engines, channels,
durations, labels, payloads) is bound by name through its place in the
programs, so segments of one structure — a cluster node's ticks of either
parity, a serving replica's layers — share one code object, and a
segment of a known structure costs one pass over its opcodes to compile.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

from repro.hardware.topology import HOST

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.stream import Stream


class GraphSegment:
    """One segment of an iteration graph: its lanes' streams and opcode
    programs and, from its first one-lap launch on, that launch's
    dispatch compiled (:func:`compile_segment`)."""

    __slots__ = (
        "streams", "programs", "run", "recorded", "compiled_runs",
        "guard_misses",
    )

    def __init__(self, programs: list[tuple["Stream", list[tuple]]]):
        self.streams = [s for s, _ in programs]
        self.programs = [ops for _, ops in programs]
        #: ``run(engine, ck_vals, boundary, consts, ev_time) -> bool``, the
        #: compiled dispatch; False when a guard failed (nothing written).
        self.run: Callable | None = None
        #: Whether a one-lap launch has reported its dispatch order.
        self.recorded = False
        #: Launches the compiled code dispatched, and launches it handed
        #: back to the interpreter because a guard failed.
        self.compiled_runs = 0
        self.guard_misses = 0


def compile_segment(
    engine: "Engine", seg: GraphSegment, order: list[tuple[int, int]]
) -> Callable | None:
    """The straight-line dispatch of ``seg`` on ``engine`` in ``order``,
    the ``(lane, pc)`` of every pop the interpreter made on a one-lap
    launch; None if the order is not one the interpreter's rules give."""
    recipe = _recipe(_structure(engine, seg, order))
    if recipe is None:
        return None
    code, paths = recipe
    progs = seg.programs
    ns = {}
    for i, path in enumerate(paths):
        head = path[0]
        if head == "lane":
            value = seg.streams[path[1]]
        elif head == "host":
            value = engine.host_engine
        elif head == "route":
            op = progs[path[1]][path[2]]
            value = (op[7], op[8])
        else:
            value = progs[head][path[1]]
            for j in path[2:]:
                value = value[j]
        ns[f"c{i}"] = value
    exec(code, ns)
    # The function's globals are ``ns``: taking it out of them leaves no
    # reference cycle to keep the bound payloads alive.
    return ns.pop("run")


def _structure(engine: "Engine", seg: GraphSegment, order) -> tuple:
    """What the generated source depends on: per lane, each opcode with
    its values replaced by whether it has a payload and which engine and
    channel, numbered by first use, it occupies; the rank of each lane's
    stream id; and the dispatch order."""
    #: engine id or channel key (a tuple) -> its number
    canon: dict = {}
    lanes = []
    for prog in seg.programs:
        ops = []
        for op in prog:
            code = op[0]
            if code == 2:
                op = (2, op[1], canon.setdefault(id(op[2]), len(canon)),
                      op[5] is not None)
            elif code == 3:
                op = (
                    3, op[1],
                    tuple(canon.setdefault(id(e), len(canon)) for e in op[2]),
                    tuple(canon.setdefault(ch, len(canon)) for ch, _ in op[3]),
                    op[6] is not None,
                )
            elif code == 4:
                host = id(engine.host_engine)
                op = (4, op[1], canon.setdefault(host, len(canon)),
                      op[4] is not None)
            ops.append(op)  # waits and records are structure already
        lanes.append(tuple(ops))
    sids = sorted(s.id for s in seg.streams)
    ranks = tuple(sids.index(s.id) for s in seg.streams)
    return tuple(lanes), ranks, tuple(order)


@functools.lru_cache(maxsize=256)
def _recipe(structure: tuple) -> tuple | None:
    """The code object of one structure's dispatch and the place in a
    segment of every value it binds (``cache_info().misses`` counts
    compiles), or None when the order is not one the interpreter's rules
    give.

    The walk follows ``Engine._dispatch`` for one lap: lanes whose head
    waits on an event of this segment that has not recorded are parked
    until the record, a ready wait runs in-line, and any other head, a
    record too, runs in-line while its key is below the heap's top. A
    pop's ops end where the same lane's next pop starts. A value's place
    is ``("lane", lane)``, ``("host",)`` (the engine's host engine),
    ``("route", lane, pc)`` (a memcpy's ``(src, dst)``) or ``(lane, pc,
    field, ...)``, indices into the programs.
    """
    progs, ranks, order = structure
    paths: list[tuple] = []

    def bind(path: tuple) -> str:
        """A name bound to the value at ``path`` in the generated code."""
        paths.append(path)
        return f"c{len(paths) - 1}"

    head: list[str] = []
    body: list[str] = []
    count = [0]

    def var(expr: str, where: list[str] = body) -> str:
        name = f"v{count[0]}"
        count[0] += 1
        where.append(f"{name} = {expr}")
        return name

    def vmax(a: str, b: str) -> str:
        """``t = a; if b > t: t = b``."""
        return var(f"{b} if {b} > {a} else {a}")

    reads: dict[str, str] = {}

    def read(expr: str) -> str:
        """An input list entry, read once at the top."""
        name = reads.get(expr)
        if name is None:
            name = reads[expr] = var(expr, head)
        return name

    #: canon -> [bound name, current busy_until or occupancy]
    engines: dict[int, list[str]] = {}
    channels: dict[int, list[str]] = {}

    def engine_of(canon: int, path: tuple) -> list[str]:
        e = engines.get(canon)
        if e is None:
            name = bind(path)
            e = engines[canon] = [name, var(f"{name}.busy_until", head)]
        return e

    def channel_of(canon: int, path: tuple) -> list[str]:
        c = channels.get(canon)
        if c is None:
            name = bind(path)
            c = channels[canon] = [name, var(f"busy.get({name}, 0.0)", head)]
        return c

    lanes = [bind(("lane", si)) for si in range(len(progs))]
    cur = [var(f"{s}.cursor", head) for s in lanes]
    in_segment = {op[2] for prog in progs for op in prog if op[0] == 1}
    recorded: dict[int, str] = {}

    def event(op) -> str | None:
        """A wait's event time, or None while it parks the lane."""
        mode, a = op[2], op[3]
        if mode == 0:
            if a in recorded:
                return recorded[a]
            if a in in_segment:
                return None
            return read(f"ev[{a}]")  # recorded by an earlier segment
        return read(f"bd[{a}]" if mode == 1 else f"cs[{a}]")

    def ready_of(si: int, op) -> str | None:
        t = vmax(read(f"ck[{op[1]}]"), cur[si])
        if op[0] == 0:
            e = event(op)
            if e is None:
                return None
            t = vmax(t, e)
        return t

    heap: dict[int, str] = {}
    parked: dict[int, list[int]] = {}
    pcs = [0] * len(progs)

    def guard(si: int, key: str) -> None:
        """Lane ``si`` with ``key`` runs before every lane in the heap."""
        fails = [
            f"{key} > {k}" if ranks[si] < ranks[x] else f"{key} >= {k}"
            for x, k in heap.items()
        ]
        if fails:
            body.append(f"if {' or '.join(fails)}: return False")

    busy_time: list[str] = []
    ev_writes: list[str] = []
    #: ``(observer args, None)`` or ``(None, payload name)``, in order.
    calls: list[tuple] = []
    rows: list[str] = []
    executed = 0
    memcpy = False

    def execute(si: int, pc: int, ready: str) -> str:
        """Dispatch lane ``si``'s op ``pc`` at ``ready``; returns its end."""
        nonlocal memcpy
        op = progs[si][pc]
        code = op[0]
        if code == 0:
            return ready
        if code == 1:
            recorded[op[2]] = ready
            ev_writes.append(f"ev[{op[2]}] = {ready}")
            for w in parked.pop(op[2], ()):
                heap[w] = ready_of(w, progs[w][pcs[w]])
            return ready
        if code == 2:
            e = engine_of(op[2], (si, pc, 2))
            start = vmax(e[1], ready)
            d, dev = bind((si, pc, 3)), bind((si, pc, 6))
            end = e[1] = var(f"{start} + {d}")
            busy_time.append(f"{e[0]}.busy_time += {end} - {start}")
            calls.append((f'"kernel", {dev}, {d}, {d}', None))
            if op[3]:
                calls.append((None, bind((si, pc, 5))))
            rows.append(
                f'("kernel", {bind((si, pc, 4))}, {dev}, {start}, {end}, 0, '
                "None)"
            )
            return end
        if code == 3:
            memcpy = True
            start = ready
            engs = [
                engine_of(x, (si, pc, 2, j)) for j, x in enumerate(op[2])
            ]
            for e in engs:
                start = vmax(start, e[1])
            chans = [
                (channel_of(x, (si, pc, 3, j, 0)), j)
                for j, x in enumerate(op[3])
            ]
            for c, _ in chans:
                start = vmax(start, c[1])
            d = bind((si, pc, 4))
            end = var(f"{start} + {d}")
            for e in engs:
                e[1] = end
                busy_time.append(f"{e[0]}.busy_time += {end} - {start}")
            base = var(f"{start} + lat")
            for c, j in chans:
                c[1] = var(f"{base} + {bind((si, pc, 3, j, 1))}")
            calls.append(
                (f'"memcpy", {bind(("route", si, pc))}, {d}, {d}', None)
            )
            if op[4]:
                calls.append((None, bind((si, pc, 6))))
            rows.append(
                f'("memcpy", {bind((si, pc, 5))}, {bind((si, pc, 8))}, '
                f"{start}, {end}, {bind((si, pc, 9))}, {bind((si, pc, 7))})"
            )
            return end
        e = engine_of(op[2], ("host",))
        start = vmax(e[1], ready)
        d = bind((si, pc, 2))
        end = e[1] = var(f"{start} + {d}")
        busy_time.append(f"{e[0]}.busy_time += {end} - {start}")
        if op[3]:
            calls.append((None, bind((si, pc, 4))))
        rows.append(
            f'("host", {bind((si, pc, 3))}, {HOST!r}, {start}, {end}, 0, None)'
        )
        return end

    for si, prog in enumerate(progs):
        if prog:
            r = ready_of(si, prog[0])
            if r is None:
                parked.setdefault(prog[0][3], []).append(si)
            else:
                heap[si] = r
    # Where each pop's in-line run ends: the lane's next pop.
    stops = [0] * len(order)
    nxt: dict[int, int] = {}
    for i in range(len(order) - 1, -1, -1):
        si, pc = order[i]
        stops[i] = nxt.get(si, len(progs[si]))
        nxt[si] = pc
    for (si, pc), stop in zip(order, stops):
        if si not in heap or pcs[si] != pc:
            return None
        ready = heap.pop(si)
        guard(si, ready)
        prog = progs[si]
        while True:
            end = cur[si] = execute(si, pc, ready)
            executed += 1
            pc += 1
            if pc < len(prog):
                op = prog[pc]
                if op[0] == 0:
                    ready = ready_of(si, op)
                    if ready is None:
                        if pc != stop:
                            return None
                        parked.setdefault(op[3], []).append(si)
                        break
                    if pc >= stop:
                        return None
                    continue  # a ready wait, in-line
                ready = vmax(read(f"ck[{op[1]}]"), end)
                if pc == stop:
                    heap[si] = ready
                    break
                if pc > stop:
                    return None
                guard(si, ready)
                continue  # below the heap's top, in-line
            if pc != stop:
                return None
            break
        pcs[si] = pc
    if heap or parked or any(pc != len(p) for pc, p in zip(pcs, progs)):
        return None

    if channels:
        head.insert(0, "busy = eng._channel_busy")
    if memcpy:
        head.insert(0, "lat = eng.topology.calib.transfer_latency")
    commit = [f"{name}.busy_until = {b}" for name, b in engines.values()]
    commit += busy_time
    commit += [f"busy[{name}] = {h}" for name, h in channels.values()]
    commit += [f"{s}.cursor = {c}" for s, c in zip(lanes, cur)]
    commit += ev_writes
    if any(args is not None for args, _ in calls):
        commit.append("obs = eng.observer")
    group: list[str] = []
    for args, payload in calls + [(None, None)]:
        if args is not None:
            group.append(f"obs({args})")
            continue
        if group:
            commit.append("if obs is not None:")
            commit += [f"    {c}" for c in group]
            group = []
        if payload is not None:
            commit.append(f"{payload}()")
    commit.append(f"eng.trace.add_batch([{', '.join(rows)}])")
    commit.append(f"eng.commands_executed += {executed}")
    commit.append("now = eng.now")
    commit += [f"if {c} > now: now = {c}" for c in cur]
    commit += ["eng.now = now", "return True"]
    src = "def run(eng, ck, bd, cs, ev):\n" + "".join(
        f"    {line}\n" for line in head + body + commit
    )
    return compile(src, "<graph segment>", "exec"), tuple(paths)
