"""Compiled eager calls (DESIGN.md §7 "Compiled calls").

A steady eager invoke of a bound record (:class:`~repro.core.plan.BoundPlan`)
re-decides nothing: which copies to make and from where, which clears and
WAR takes, which kernels and which monitor transitions all follow from the
record and the geometry state ids (``LocationMonitor._sid``) of its datums.
What changes between invokes is the events, the host clock and, on a
functional node, the payloads.

:func:`lower` walks ``Scheduler._replay`` symbolically for one record
under one state tuple, against the tables a replay under that tuple
filled (the plan's copy decisions and the monitor's transitions), and
writes the walk out as one straight-line function: ``call(task)`` makes
the same commands, events and handle as the replay, in the same order,
with every route and duration pre-lowered, and applies the monitor's
whole transition at once. The function returns None, having written
nothing, when a device allocator moved since the record was bound.

The source names every value by position (``c{i}``), so records of one
call structure share one source: :func:`bind` compiles it once per node
(``NodeTables.calls``) into ``make(c0, c1, ...)``, and each record binds
its own values by calling ``make``. ``_replay`` stays the only path for
everything else, and the oracle.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Optional

from repro.core.location_monitor import _SRC_OP, CopyOp, _Instance
from repro.core.plan import bounded_put
from repro.core.recovery import _TransferContext
from repro.core.task import TaskHandle
from repro.hardware.topology import HOST
from repro.patterns.base import Aggregation
from repro.sim.commands import Event, EventRecord, EventWait, KernelLaunch, Memcpy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import BoundPlan, NodeTables
    from repro.core.scheduler import Scheduler
    from repro.core.task import Task

#: The generated code's globals: the classes it builds.
_GLOBALS = {
    "Event": Event, "EventRecord": EventRecord, "EventWait": EventWait,
    "KernelLaunch": KernelLaunch, "Memcpy": Memcpy, "CopyOp": CopyOp,
    "TC": _TransferContext, "TaskHandle": TaskHandle, "I": _Instance,
}


#: A record's calls table: a state tuple seen once, and one whose walk
#: failed; both replay.
SEEN = object()
NEVER = object()
#: State tuples one record compiles for at most; past it, new ones replay.
CALLS_PER_RECORD = 64

#: A read of a datum's pre-call instances in generated code.
_OLD = re.compile(r"\bo(\d+)\[")


class _Sym:
    """One monitor instance during the walk: its rect, the code of its
    event, and ``(loc, idx)`` when it is the pre-call instance object at
    that position (carried over as is)."""

    __slots__ = ("rect", "ev", "old")

    def __init__(self, rect, ev: str, old: Optional[tuple] = None):
        self.rect = rect
        self.ev = ev
        self.old = old


def _apply(template: tuple, pre: dict, ev: str) -> dict:
    """``LocationMonitor._apply`` over symbolic instances."""
    new = {}
    for loc, entries in template:
        if entries is None:
            new[loc] = pre[loc]
            continue
        lst = []
        for rect, src in entries:
            if src is _SRC_OP:
                lst.append(_Sym(rect, ev))
            elif rect is None:
                lst.append(pre[src[0]][src[1]])
            else:
                lst.append(_Sym(rect, pre[src[0]][src[1]].ev))
        new[loc] = lst
    return new


def _clear(buf):
    """The payload of a duplicated output's clear: zero ``buf``."""

    def payload() -> None:
        buf.data.fill(0)

    return payload


def lower(
    sched: "Scheduler", task: "Task", rec: "BoundPlan"
) -> Optional[tuple[str, list]]:
    """The source of ``rec``'s compiled call under its datums' current
    geometry states, and the values it binds; None when the walk meets
    anything the tables do not hold (the call then keeps replaying).
    ``task`` is the submission being compiled for: its constants key the
    durations."""
    plan = rec.plan
    node = sched.node
    monitor = sched.monitor
    transitions = monitor._transitions
    functional = node.functional
    latency = node.interconnect.kernel_launch_latency
    active = plan.active
    dplans = plan.device_plans
    inputs, outputs = task.inputs, task.outputs
    datums = [c.datum for c in task.containers]
    index = {id(d): j for j, d in enumerate(datums)}
    if len(index) != len(datums):
        return None  # a datum bound twice: its updates interleave
    states = [monitor._st(d) for d in datums]
    if any(states[index[id(c.datum)]].agg_mode is not Aggregation.NONE
           for c in inputs):
        return None  # pending partials: the replay aggregates them
    values: list[Any] = []

    def c(x) -> str:
        values.append(x)
        return f"c{len(values) - 1}"

    lines = []
    devices = node.devices
    guard = " or ".join(
        f"{c(devices[d].memory)}.epoch != {c(epoch)}" for d, epoch in rec.epochs
    )
    if guard:
        lines.append(f"if {guard}: return None")
    ic = node.interconnect
    nd = c(node)
    dt = c(
        ic.scheduler_task_overhead
        + ic.scheduler_container_overhead * len(task.containers) * len(active)
    )
    lines += [f"h = {nd}.host_time + {dt}", f"{nd}.host_time = h"]
    for d in active:
        bufs = rec.buffers[d]
        if bufs:
            mem = c(devices[d].memory)
            lines.append(f"k = {mem}.clock")
            for buf in bufs:
                lines += ["k += 1", f"{c(buf)}.last_use = k"]
            lines.append(f"{mem}.clock = k")
    # The datums' states and, for inputs, their pre-call instances.
    for j, st in enumerate(states):
        lines.append(f"s{j} = {c(st)}")
    heads = len(lines)
    sid = [st.sid for st in states]
    locs = [{} for _ in states]  # each datum's location constants

    def at(j: int, loc: int) -> str:
        code = locs[j].get(loc)
        if code is None:
            code = locs[j][loc] = c(loc)
        return code

    pre = [
        {
            loc: [
                _Sym(inst.rect, f"o{j}[{at(j, loc)}][{idx}].event", (loc, idx))
                for idx, inst in enumerate(insts)
            ]
            for loc, insts in st.up_to_date.items()
        }
        for j, st in enumerate(states)
    ]
    geo = [dict(p) for p in pre]
    moved: set[int] = set()
    hits = 0
    n_ev = 0
    n_tmp = 0

    def waits_on(q: str, waits: list) -> None:
        for kind, code in waits:
            if kind == "ev":
                lines.append(f"{q}(EventWait(None, h, {code}))")
            else:
                lines.append(f"for e in {code}:")
                lines.append(f"    {q}(EventWait(None, h, e))")

    # Steps 4-5: copies, WAR takes and clears, device by device.
    kernel_waits = {}
    copy_memo = plan.copy_memo
    for d in active:
        kernel_waits[d] = waits = []
        for i, cont in enumerate(inputs):
            datum = cont.datum
            j = index[id(datum)]
            decisions = copy_memo.get((sid[j], (i, d)))
            if decisions is None:
                return None
            for src, idx, rect in decisions:
                inst = geo[j][src][idx]
                stream = (
                    sched._copy_in[d] if src == HOST else sched._copy_out[src]
                )
                q = c(stream.commands.append)
                wait = inst.ev
                if wait.endswith(".event"):  # a pre-call one: maybe None
                    n_tmp += 1
                    p = f"p{n_tmp}"
                    lines += [
                        f"{p} = {wait}",
                        f"if {p} is not None: {q}(EventWait(None, h, {p}))",
                    ]
                    wait = p
                else:
                    lines.append(f"{q}(EventWait(None, h, {wait}))")
                lines.append(
                    f"op = CopyOp({c(src)}, {c(d)}, {c(rect)}, {wait}, {idx})"
                )
                text = f"copy:{datum.name}:{src}->{d}"
                label = c(text)
                nbytes = rect.size * datum.dtype.itemsize
                route = node.engine._route(src, d, nbytes, False, 0.0)
                if functional:
                    lines.append(
                        f"pay = {c(sched._copy_payload)}({c(datum)}, op)"
                    )
                    lowered = (
                        f"(3, None, {c(route[0])}, {c(route[1])}, "
                        f"{c(route[2])}, {label}, pay, {c(src)}, {c(d)}, "
                        f"{c(nbytes)})"
                    )
                    pay = "pay"
                else:
                    lowered = c((3, None, *route, text, None, src, d, nbytes))
                    pay = "None"
                ev = f"v{n_ev}"
                n_ev += 1
                lines += [
                    f"m = Memcpy({pay}, h, {label}, {c(src)}, {c(d)}, "
                    f"{c(nbytes)})",
                    f"m.op = {lowered}",
                    f"{q}(m)",
                    f"{ev} = Event({label})",
                    f"{q}(EventRecord(None, h, {label}, {ev}))",
                    f"m.origin = TC({c(datum)}, op, {ev})",
                ]
                hit = transitions.get((sid[j], 0, d, rect))
                if hit is None:
                    return None
                post, template = hit
                hits += 1
                geo[j] = _apply(template, geo[j], ev)
                sid[j] = post
                moved.add(j)
                lines.append(f"s{j}.add_read({c(src)}, {ev}, h)")
                waits.append(("ev", ev))
        for cont, buf in zip(outputs, rec.buffers[d][len(inputs):]):
            j = index[id(cont.datum)]
            n_tmp += 1
            lines.append(f"r{n_tmp} = s{j}.take_reads({c(d)})")
            waits.append(("list", f"r{n_tmp}"))
            if cont.duplicated:
                q = c(sched._compute[d].commands.append)
                waits_on(q, waits)
                waits.clear()
                dev = devices[d]
                total = buf.nbytes / (
                    dev.spec.mem_bandwidth * dev.calib.stream_efficiency
                ) + latency
                pay = _clear(buf) if functional else None
                label = f"memset:{cont.datum.name}@gpu{d}"
                lines += [
                    f"k = KernelLaunch({c(pay)}, h, {c(label)}, {c(total)})",
                    f"k.op = {c((2, None, dev.compute, total, label, pay, d))}",
                    f"{q}(k)",
                ]
    # Step 6: kernels and their completion events.
    durations = sched._durations(task, plan)
    kernel = task.kernel
    payloads = functional and kernel.func is not None
    lines.append("nm = task.name")
    for d in active:
        q = c(sched._compute[d].commands.append)
        waits_on(q, kernel_waits[d])
        pay = "None"
        if payloads:
            lines.append(
                f"pay = {c(sched._kernel_payload)}(task, {c(d)}, "
                f"{c(dplans[d])}, {c(len(active))})"
            )
            pay = "pay"
        total = c(durations[d] + latency)
        lines += [
            f"l = nm + {c(f'@gpu{d}')}",
            f"k = KernelLaunch({pay}, h, l, {total})",
            f"k.op = (2, None, {c(devices[d].compute)}, {total}, l, {pay}, "
            f"{c(d)})",
            f"{q}(k)",
            f"e{d} = Event(l)",
            f"{q}(EventRecord(None, h, l, e{d}))",
        ]
    # The monitor: the kernels' reads, then the outputs' writes.
    for d in active:
        for cont in inputs:
            lines.append(f"s{index[id(cont.datum)]}.add_read({c(d)}, e{d}, h)")
    agg_none = None
    for i, cont in enumerate(outputs):
        j = index[id(cont.datum)]
        st = f"s{j}"
        if cont.duplicated:
            sources = ", ".join(f"{c(d)}: e{d}" for d in active)
            lines += [
                f"{st}.up_to_date = {{}}",
                f"{st}.agg_mode = {c(cont.aggregation)}",
                f"{st}.agg_sources = {{{sources}}}",
                f"{st}.agg_lost = False",
                f"{st}.agg_shadow = None",
                f"{st}.sid = -1",
            ]
            continue
        if agg_none is None:
            agg_none = c(Aggregation.NONE)
        lines += [
            f"{st}.agg_mode = {agg_none}",
            f"{st}.agg_sources.clear()",
            f"{st}.agg_lost = False",
            f"{st}.agg_shadow = None",
        ]
        for d in active:
            hit = transitions.get((sid[j], 1, d, dplans[d].output_rects[i]))
            if hit is None:
                return None
            post, template = hit
            hits += 1
            geo[j] = _apply(template, geo[j], f"e{d}")
            sid[j] = post
            moved.add(j)
    # Each moved geometry's final instances, from the pre-call ones.
    for j in sorted(moved):
        items = []
        for loc, lst in geo[j].items():
            cl = at(j, loc)
            if lst is pre[j].get(loc):
                items.append(f"{cl}: o{j}[{cl}]")
                continue
            row = [
                f"o{j}[{at(j, x.old[0])}][{x.old[1]}]" if x.old is not None
                else f"I({c(x.rect)}, {x.ev})"
                for x in lst
            ]
            items.append(f"{cl}: [{', '.join(row)}]")
        lines += [
            f"s{j}.up_to_date = {{{', '.join(items)}}}",
            f"s{j}.sid = {c(sid[j])}",
        ]
    # The pre-call instances, read before any of them is replaced.
    used = sorted({int(j) for j in _OLD.findall("\n".join(lines))})
    lines[heads:heads] = [f"o{j} = s{j}.up_to_date" for j in used]
    lines += [
        f"{c(monitor)}.transition_hits += {hits}",
        "return TaskHandle(task, [%s], h)" % ", ".join(f"e{d}" for d in active),
    ]
    params = ", ".join(f"c{i}" for i in range(len(values)))
    src = (
        f"def make({params}):\n    def call(task):\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    return call\n"
    )
    return src, values


def bind(tables: "NodeTables", src: str, values: list):
    """``make(*values)`` of ``src``, compiled once per node."""
    make = tables.calls.get(src)
    if make is None:
        ns = dict(_GLOBALS)
        exec(compile(src, "<compiled call>", "exec"), ns)
        make = ns.pop("make")
        bounded_put(tables.calls, src, make)
    return make(*values)
