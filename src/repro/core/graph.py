"""Iteration-graph capture & replay (DESIGN.md §12).

CUDA-graph-style batch submission for the steady state: the scheduler
records one full iteration's *resolved* command stream — every kernel,
copy (region gathers to the host included), event dependency and
host-clock advance that planning produced, and the host-dirty marks and
host syncs between them — into an
:class:`IterationGraph`, then re-dispatches it as a pre-lowered
macro-command, skipping task construction, plan lookup, copy-decision
memoization and per-task monitor queries entirely. A graph is a
*transition* from the monitor structure it was captured in to the state
it left; one whose exit equals its entry (a fixed point) replays ``n``
laps per launch.

The replay is *bit-identical* to the eager path, not merely equivalent:

* Every opcode is the engine's own lowering of its command
  (:meth:`Engine.lower`), made once when ``SimNode`` enqueued it
  (``cmd.op``), and :meth:`Engine.run_graph` dispatches it
  through the same loop as :meth:`Engine.run`: the same floating-point
  arithmetic in the same order, by the same rule for which command runs
  next. A one-lap launch runs each segment
  through code compiled from the order the loop took on its first one
  (:mod:`repro.sim.segment`): the same arithmetic again, with every heap
  decision guarded and the loop taking over when a guard fails.
* Host-clock checkpoints re-accumulate the captured per-lap advances with
  the same sequential additions the eager submission loop performs.
* Cross-lap event dependencies are resolved by position: a steady-state
  period creates the same events in the same order every lap, and a
  captured wait on an event from before the capture reads the monitor
  position (datum, location, instance or read index) that held it. The
  period leaves either the same event there (a constant) or one of its
  own (``slot``), so a later lap waits on that slot one period earlier.
* Device-LRU touch order and EWMA observer callbacks are replayed so
  every side channel the scheduler might read later has the exact state
  an uncaptured run would have left.

A graph is *invalidated* — and its :meth:`IterationGraph.launch` falls
back to re-invoking the recorded calls through the normal scheduler path,
bit-identically by construction — whenever the steady state it froze no
longer holds: an EWMA rebalance changed segment weights, a device was
retired, a replica was evicted or chunked under memory pressure (all bump
the scheduler's graph generation), straggler windows or pending transfer
faults are still active, or the monitor no longer has the structure the
capture period started from: the same residency geometry, aggregation
state and consumed read-list shapes. Events are not compared by identity,
so eager work between launches that rebuilds the same structure (a new
producer of the same residency) keeps the fast path.

A launch costs what changed since the last one. Finalization generates
the whole fast launch as one straight-line Python function, shared by
graphs of one structure: the pre-checks, the entry check and entry-event
reads, the host checkpoints, each segment's compiled dispatch and the
exit state it writes back to the monitor. The checks only a node event
can fail (dead devices, the fault plan) run once per ``SimNode.epoch``.
The exit stamps each datum; every monitor mutation clears the stamp, and
a datum still carrying one the graph has verified skips the structural
compare.

Workloads do not capture or launch by hand: :class:`Loop` declares one
steady period of calls and drives its graphs, whole periods through
:meth:`Loop.replay` (the benches' steady iteration loops,
``bench/workloads.steady``) and transitions through :meth:`Loop.run`
(the serving engines and the cluster's node agents). Job-server leases
run their chunks eagerly, and so do the two applications' iterations
(:meth:`Loop.submit`).
"""

from __future__ import annotations

import bisect
import functools
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from repro.core.location_monitor import _READ_FLOOR, _Instance
from repro.errors import GraphCaptureError
from repro.hardware.topology import HOST
from repro.patterns.base import OutputContainer
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
)
from repro.sim.segment import GraphSegment

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.grid import Grid
    from repro.core.scheduler import Scheduler
    from repro.core.task import Kernel
    from repro.sim.stream import Stream


_CLOCK = "host clock advanced outside host_advance during capture"


class GraphRecorder:
    """Collects one steady-state period as the scheduler submits it.

    Made and installed as ``node.graph_recorder`` by
    ``Scheduler.capture``; submission behaviour is unchanged, the recorder
    only mirrors what was enqueued (plus the host-clock advances,
    host-dirty marks, host syncs and device-LRU touches the replay must
    reproduce). It carries the graph it records into, the monitor state
    the period starts from and the scheduler's graph generation then.
    """

    __slots__ = (
        "graph",
        "entry",
        "gen0",
        "war_log",
        "commands",
        "streams",
        "events",
        "deltas",
        "touches",
        "h",
        "marks",
        "regions",
        "cuts",
        "fail",
    )

    def __init__(
        self,
        graph: "IterationGraph",
        host_time: float,
        entry: dict[int, tuple],
        gen0: int,
    ):
        self.graph = graph
        #: ``snapshot_monitor`` of the monitor the period starts from.
        self.entry = entry
        #: The scheduler's graph generation when the capture started.
        self.gen0 = gen0
        #: ``(datum id, location)`` of every read list a writer of the
        #: period consumed (installed as ``monitor.war_log``).
        self.war_log: set[tuple[int, int]] = set()
        #: stream id -> [(command, checkpoint index)]; the checkpoint is
        #: the number of host advances seen before submission, so replay
        #: can reconstruct the command's ``earliest_start`` per lap.
        self.commands: dict[int, list[tuple[Any, int]]] = {}
        self.streams: dict[int, "Stream"] = {}
        #: Events created during the capture window, in creation order
        #: (slot s holds the event with sequence number ``S0 + s``).
        self.events: list[Event] = []
        #: Host-clock advances of the period, in order; None where a host
        #: sync rejoined the clock to the engine's.
        self.deltas: list[float | None] = []
        #: Submission-time device-LRU touches ``(memory, buffer)``.
        self.touches: list[tuple[Any, Any]] = []
        #: The host clock the recorded advances and syncs account for.
        self.h = host_time
        #: ``(datum id, checkpoint)`` of every whole-datum host-dirty mark.
        self.marks: list[tuple[int, int]] = []
        #: Ids of the datums a region host-dirty mark touched (the exit
        #: holds such a mark's whole effect).
        self.regions: set[int] = set()
        #: ``(touches, events)`` recorded before each host sync.
        self.cuts: list[tuple[int, int]] = []
        #: Why the period cannot replay, once something made it so.
        self.fail = ""

    def record(self, stream: "Stream", cmd: Any) -> None:
        sid = stream.id
        cmds = self.commands.get(sid)
        if cmds is None:
            self.streams[sid] = stream
            cmds = self.commands[sid] = []
        cmds.append((cmd, len(self.deltas)))

    def record_event(self, event: Event) -> None:
        self.events.append(event)

    def record_host(self, dt: float) -> None:
        self.deltas.append(dt)
        self.h += dt

    def record_mark(self, did: int, host_reads) -> None:
        """A host-dirty mark of datum ``did``, whose host read list was
        ``host_reads``: the replay compacts that list at the mark's
        checkpoint, which reproduces the eager compaction only while the
        list holds no read of this period."""
        if self.events and any(
            e.seq >= self.events[0].seq for e in host_reads
        ):
            self.fail = "a host-dirty mark follows a host read of the period"
        self.marks.append((did, len(self.deltas)))

    def sync_mark(self, host_time: float) -> tuple[int, int, int]:
        """What was recorded before a host sync drains the node, whose host
        clock reads ``host_time``."""
        if host_time != self.h:
            self.fail = _CLOCK
        return len(self.touches), len(self.events), len(self.deltas)

    def record_sync(self, before: tuple, host_time: float) -> None:
        """A host sync that drained the node, which left the host clock at
        ``host_time``. The drain's touches are dispatch-time ones (the
        replayed payloads make them again); work the drain submitted
        (recovery, speculation) has no place in the graph."""
        touches, events, deltas = before
        if len(self.events) != events or len(self.deltas) != deltas:
            self.fail = "work was submitted while a captured host sync drained"
        del self.touches[touches:]
        self.cuts.append((touches, events))
        self.deltas.append(None)
        self.h = host_time


def _snapshot_state(st) -> tuple:
    """Immutable view of one datum's monitor state (events by reference;
    ``st.sid`` must be current, as ``LocationMonitor.states`` leaves it)."""
    shadow = st.agg_shadow
    return (
        st.sid,
        tuple(
            (loc, tuple((i.rect, i.event) for i in insts))
            for loc, insts in st.up_to_date.items()
        ),
        st.agg_mode,
        tuple(st.agg_sources.items()),
        tuple((loc, tuple(evs)) for loc, evs in st.pending_reads.items()),
        st.agg_lost,
        None
        if shadow is None
        else (shadow[0], tuple(shadow[1].items()), shadow[2]),
        tuple(st.read_marks.items()),
    )


def snapshot_monitor(monitor) -> dict[int, tuple]:
    """Snapshot every datum's monitor state, events by reference (capture
    compares the entry and exit snapshots to prove the period is a fixed
    point modulo per-lap event refresh)."""
    return {did: _snapshot_state(st) for did, st in monitor.states().items()}


#: Kinds of a *position* ``(did, kind, loc, idx)``: a place the eager path
#: reads an event from — an up-to-date instance, a pending-aggregation
#: source (``idx`` 0), or an entry of a pending-read list that a writer of
#: the period consumes.
_INST, _AGG, _READ = 0, 1, 2


def _event_at(st, kind: int, loc: int, idx: int):
    if kind == _INST:
        return st.up_to_date[loc][idx].event
    if kind == _AGG:
        return st.agg_sources[loc]
    return st.pending_reads[loc][idx]


def _positions(did: int, snap: tuple, consumed: set[int]):
    """``(position, event)`` for every event of one datum's snapshot the
    eager path may read; ``consumed`` are the locations whose read lists
    the period's writers take."""
    _, utd, _, aggs, pend = snap[:5]
    for loc, insts in utd:
        for i, (_, ev) in enumerate(insts):
            yield (did, _INST, loc, i), ev
    for d, ev in aggs:
        yield (did, _AGG, d, 0), ev
    for loc, evs in pend:
        if loc in consumed:
            for i, ev in enumerate(evs):
                yield (did, _READ, loc, i), ev


def _matches(st, shape: tuple) -> bool:
    """Whether one datum's monitor state has a graph's entry structure
    (``IterationGraph._shape``): its geometry id and aggregation state,
    consumed read lists of the captured lengths and marks, and no event at
    any ``(kind, loc, idx)`` of its nones."""
    sid, mode, lost, agg, shapes, nones = shape
    if (
        st.sid != sid
        or st.agg_mode is not mode
        or st.agg_lost != lost
        or tuple(st.agg_sources) != agg
    ):
        return False
    reads, marks = st.pending_reads, st.read_marks
    for loc, length, mark in shapes:
        if len(reads.get(loc, ())) != length or marks.get(loc) != mark:
            return False
    return all(_event_at(st, *pos) is None for pos in nones)


class _Exit:
    """One datum's exit in one graph: the stamp that graph's launch
    leaves on the datum, which the next monitor mutation clears."""

    __slots__ = ()


#: Stamps a graph remembers as verified, at least, and per captured datum;
#: past this it starts over (a long lived graph next to re-captured ones
#: would otherwise keep their stamps).
_VERIFIED_LIMIT = 16
_VERIFIED_PER_DATUM = 2


def _compare(graph: "IterationGraph", st, shape: tuple) -> bool:
    """A launch's full compare of one datum's state against its entry
    structure; the stamp of a state that passes is remembered."""
    graph.full_compares += 1
    graph._sched.monitor._sid(st)
    if not _matches(st, shape):
        return False
    stamp = st.stamp
    if stamp is not None:
        verified = graph._verified
        if len(verified) >= max(
            _VERIFIED_LIMIT, _VERIFIED_PER_DATUM * len(graph._shape)
        ):
            verified.clear()
        verified.add(stamp)
    return True


@functools.lru_cache(maxsize=256)
def _launch_code(key: tuple):
    """The code object of one structure's launch (``IterationGraph._lower``
    makes the key; ``cache_info().misses`` counts compiles):
    ``launch(g, n)``, which returns the node time, or None before writing
    anything when the steady state does not hold. In order:

    * the pre-checks no node event can change: the generation, the queued
      commands of every stream on the node and the mitigator's weights;
    * per captured datum, a full compare (``_compare``) unless it carries
      a stamp the graph has verified, which fixes all but the consumed
      read lists the exit appended to or left alone: the lengths, marks
      and no-event places of all consumed read lists are read again;
    * the entry events' reads, each group's positions holding one
      recorded event;
    * the host checkpoints, accumulated in locals with the eager
      submission loop's sequential additions (a host sync rejoins the
      clock to the engine's, as ``SimNode.run`` does), the submission
      touches, and each segment's compiled dispatch, counted here, its
      one caller, or the interpreter ``Engine.run_graph`` for a segment
      not compiled yet, a guard miss and a fixed point's ``n > 1`` laps;
    * the marks' compaction of the host read list at their checkpoints;
    * the exit (``_exit_lines``).
    """
    (fixed, E, K, mitigated, datums, refs, slot_refs, segments, marks,
     exits, tail, tail_labels, done, appends) = key
    lines = [
        "if sched._graph_generation != gen: return None",
        "for s in node.streams:",
        "    if s.commands: return None",
    ]
    if mitigated:
        lines.append("if mitigator.weights() != sched._weights: return None")
    for j, (did, shape, lists, nones) in enumerate(datums):
        lines += [f"s{j} = state.get(c{did})", f"if s{j} is None: return None"]
        fails = [
            f"len(s{j}.pending_reads.get(c{loc}, ())) != {length}"
            + (f" or c{loc} in s{j}.read_marks" if mark is None
               else f" or s{j}.read_marks.get(c{loc}) != c{mark}")
            for loc, length, mark in lists
        ] + [f"s{j}.pending_reads[c{loc}][{idx}] is not None"
             for loc, idx in nones]
        if fails:
            lines += [
                f"if s{j}.stamp in verified:",
                f"    if {' or '.join(fails)}: return None",
                f"elif not compare(g, s{j}, c{shape}): return None",
            ]
        else:
            lines.append(
                f"if s{j}.stamp not in verified and not compare(g, s{j}, "
                f"c{shape}): return None"
            )

    def at(j, kind, loc, idx) -> str:
        if kind == _INST:
            return f"s{j}.up_to_date[c{loc}][{idx}].event"
        if kind == _AGG:
            return f"s{j}.agg_sources[c{loc}]"
        return f"s{j}.pending_reads[c{loc}][{idx}]"

    for r, (first, *others) in enumerate(refs):
        lines += [
            f"e{r} = {at(*first)}",
            f"if e{r} is None or (t{r} := e{r}.recorded_at) is None"
            + "".join(f" or {at(*p)} is not e{r}" for p in others)
            + ": return None",
        ]
    lines += [
        "g.fast_launches += 1",
        "cs = [%s]" % ", ".join(f"t{r}" for r in range(len(refs))),
    ]
    if slot_refs:  # lap 0's previous-lap slots read entry events
        bd = ["0.0"] * E
        for slot, r in slot_refs:
            bd[slot] = f"t{r}"
        lines.append(f"bd = [{', '.join(bd)}]")
    else:
        lines.append("bd = boundary")
    one = ["k0 = node.host_time"]
    k = 0
    for i, (segment, deltas, touches) in enumerate(segments):
        if i:  # a host sync drained the segment before
            one += ["x = eng.now", f"k{k + 1} = x if x > k{k} else k{k}"]
            k += 1
        cks = [f"k{k}"]
        for d in deltas:
            one.append(f"k{k + 1} = k{k} + c{d}")
            k += 1
            cks.append(f"k{k}")
        one.append(("ck += [%s]" if i else "ck = [%s]") % ", ".join(cks))
        one += [f"c{touch}(c{buf})" for touch, buf in touches]
        if not i:
            one.append(f"ev = [None] * {E}")
        interpret = f"eng.run_graph(c{segment}, 1, ck, {K}, {E}, bd, cs, ev)"
        one += [
            f"r = c{segment}.run",
            f"if r is None: {interpret}",
            f"elif r(eng, ck, bd, cs, ev): c{segment}.compiled_runs += 1",
            "else:",
            f"    c{segment}.guard_misses += 1",
            f"    {interpret}",
        ]
    one += ["x = eng.now", f"hh = x if x > k{k} else k{k}"]
    # A host-dirty mark's effect the exit does not write: the host read
    # list compacted at the mark's checkpoint.
    one += [f"s{j}.compact_reads({HOST!r}, k{ck})" for j, ck in marks]
    if fixed:  # one segment, no marks, no syncs
        segment, deltas, touches = segments[0]
        many = ["ck = []", "h = node.host_time", "for _ in range(n):",
                "    ck.append(h)"]
        for d in deltas:
            many += [f"    h += c{d}", "    ck.append(h)"]
        if touches:
            many.append("for _ in range(n):")
            many += [f"    c{touch}(c{buf})" for touch, buf in touches]
        many += [
            f"ev = eng.run_graph(c{segment}, n, ck, {K}, {E}, bd, cs, None)",
            "x = eng.now",
            "hh = x if x > h else h",
        ]
        lines.append("if n == 1:")
        lines += [f"    {line}" for line in one]
        lines.append("else:")
        lines += [f"    {line}" for line in many]
    else:
        lines += one
    lines += _exit_lines(
        fixed, E, exits, tail, tail_labels, done, appends
    )
    # The node time: the engine's is at most the host clock's now.
    lines += ["plans.graph_hits += n * invokes", "return hh"]
    src = "def launch(g, n):\n" + "".join(f"    {line}\n" for line in lines)
    return compile(src, "<graph launch>", "exec")


def _exit_lines(fixed, E, exits, tail, tail_labels, done, appends) -> list:
    """The exit: it makes the launch's events and writes every captured
    datum's exit state in one pass of assignments, as the last lap would
    have left it.

    The exit holds a fresh :class:`Event` for every slot the last lap
    leaves in the monitor, the launch's entry events for its refs, and
    None. An exit instance the entry check guarantees unchanged — a None
    event at a required-none position, or an entry ref at one of its
    group's positions — is carried over, and a location whose instances
    all are, in order, keeps its list. Read tails are appended lap by lap
    (a fixed point's ``n`` laps; one otherwise), each append followed by
    the monitor's floor and mark test for compaction
    (``_DatumState.add_read``), with the events of their segment still
    unrecorded — as in the eager submission, where no event of that
    segment has run yet — and get their replayed times only afterwards;
    no compaction reads the other events, which are made with theirs.
    Each datum is then stamped with its exit."""
    lines = ["node.host_time = hh"]
    if fixed:
        lines.append(f"b = (n - 1) * {E}")
    base = "b + " if fixed else ""
    lines += [f"v{s} = Event(c{label}, ev[{base}{s}])" for s, label in done]
    if tail:
        made = "[%s]" % ", ".join(f"Event(c{label})" for label in tail_labels)
        if fixed:
            lines += [f"laps = [{made} for _ in range(n)]", "last = laps[-1]"]
        else:
            lines.append(f"last = {made}")
    for j, utd, sid, mode, lost, aggs, shadow, replace, _ in exits:
        st = f"s{j}"
        if any(row is None or any(type(x) is int for x in row)
               for _, row in utd):
            lines.append(f"old = {st}.up_to_date")
        locs = []
        for loc, row in utd:
            if row is None:
                locs.append(f"c{loc}: old[c{loc}]")
                continue
            items = [
                f"old[c{loc}][{x}]" if type(x) is int else f"I(c{x[0]}, {x[1]})"
                for x in row
            ]
            locs.append(f"c{loc}: [{', '.join(items)}]")
        lines += [
            f"{st}.up_to_date = {{{', '.join(locs)}}}",
            f"{st}.sid = c{sid}",
            f"{st}.agg_mode = c{mode}",
            f"{st}.agg_lost = c{lost}",
            f"{st}.agg_sources = {_mapping(aggs)}",
        ]
        if shadow is None:
            lines.append(f"{st}.agg_shadow = None")
        elif shadow != "keep":
            smode, sources, hev = shadow
            lines.append(
                f"{st}.agg_shadow = (c{smode}, {_mapping(sources)}, {hev})"
            )
        for loc, srcs, mark in replace:
            lines.append(
                f"{st}.pending_reads[c{loc}] = [{', '.join(srcs)}]" if srcs
                else f"{st}.pending_reads.pop(c{loc}, None)"
            )
            lines.append(
                f"{st}.read_marks.pop(c{loc}, None)" if mark is None
                else f"{st}.read_marks[c{loc}] = c{mark}"
            )
    # A fixed point's laps, or the one lap's events.
    pad, evs = ("    ", "evs") if fixed else ("", "last")
    for group in appends:
        if not group:
            continue
        for j, loc, slots in group:
            lines += [
                f"rl = s{j}.pending_reads.get(c{loc})",
                f"if rl is None: rl = s{j}.pending_reads[c{loc}] = []",
            ]
            if fixed:
                lines.append("for evs in laps:")
            for s in slots:
                lines += [
                    f"{pad}rl.append({evs}[{tail.index(s)}])",
                    f"{pad}if (ln := len(rl)) >= {_READ_FLOOR} and "
                    f"ln >= s{j}.read_marks.get(c{loc}, ln): "
                    f"s{j}.compact_reads(c{loc}, hh)",
                ]
        if fixed:
            lines += ["for lap, evs in enumerate(laps):", f"    b = lap * {E}"]
        recorded = sorted({s for _, _, slots in group for s in slots})
        lines += [
            f"{pad}{evs}[{tail.index(s)}].recorded_at = ev[{base}{s}]"
            for s in recorded
        ]
    lines += [f"s{x[0]}.stamp = c{x[-1]}" for x in exits]
    return lines


def _mapping(pairs) -> str:
    return "{%s}" % ", ".join(f"c{d}: {s}" for d, s in pairs)


class IterationGraph:
    """A captured steady-state period, replayable as one macro-command.

    Produced by ``with sched.capture() as g:``. :meth:`launch`
    re-dispatches the
    period ``n`` times; when the frozen steady state no longer holds it
    transparently falls back to re-invoking the recorded calls through
    the normal scheduler path; the fallback is also the oracle the fast
    path is held to.

    The graph binds to the monitor by *structure*, not by the identity of
    the last producer: per captured datum it keeps the geometry state id,
    the aggregation state and the shape of every read list the period
    consumes, and every wait on an event from before the capture is
    recorded by the position the event held (datum, location, instance or
    read index). A launch re-reads the events at those positions, so
    eager work that leaves the same structure behind — a new producer of
    the same residency — keeps the fast path.
    """

    def __init__(self, scheduler: "Scheduler"):
        self._sched = scheduler
        #: The scheduler calls of the period (invokes and gathers), for
        #: the fallback path: ``(bound method, args, kwargs)``.
        self.calls: list[tuple] = []
        #: Whether the capture compiled to a replayable macro-command.
        self.replayable = False
        #: Whether the period leaves the structure it started from, so
        #: ``launch(n)`` replays ``n`` laps; a transition replays one.
        self.fixed_point = False
        #: Human-readable reason when not replayable.
        self.reason = "capture not finalized"
        #: Scheduler graph generation the capture is valid for; any
        #: weight rebalance / device retirement / eviction / chunking
        #: bumps the scheduler counter and permanently invalidates this.
        self.generation = -1
        self.launches = 0
        self.fast_launches = 0
        self.replayed_laps = 0
        # Compiled state (set by _finalize when replayable):
        #: Per segment of the period (one more than its host syncs): its
        #: per-stream opcode programs (and, once launched for one lap,
        #: their compiled dispatch), the host-clock advances and the
        #: submission-time device-LRU touches ``(touch, buffer)``.
        self._segments: list[tuple[GraphSegment, list[float], list]] = []
        #: ``(datum id, checkpoint)`` of the period's host-dirty marks.
        self._marks: list[tuple[int, int]] = []
        #: The first event slot of every segment after the first.
        self._cuts: list[int] = []
        self._K = 1
        self._E = 0
        self._slot_labels: list[str] = []
        self._devices: set[int] = set()
        #: Entry-state events the replay reads, each as the positions
        #: that held it at capture; a launch requires each group to hold
        #: one recorded event again. Constant waits (opcode mode 2) index
        #: this list.
        self._refs: list[tuple[tuple, ...]] = []
        #: ``(slot, ref)``: lap 0's previous-lap wait on ``slot`` reads the
        #: event of ``ref``.
        self._slot_refs: list[tuple[int, int]] = []
        #: did -> ``(sid, agg mode, agg lost, agg source devices,
        #: ((loc, length, mark), ...) of consumed read lists, positions
        #: that must hold no event)`` — the entry structure a launch
        #: requires.
        self._shape: dict[int, tuple] = {}
        #: did -> the exit state a launch leaves, as the last lap
        #: would: ``(sid, agg mode, agg lost, instances, agg sources,
        #: shadow, replaced reads, read tails)``; each event is None, a
        #: slot ``s >= 0`` or the entry ref ``r`` stored as ``-1 - r``.
        self._exit: dict[int, tuple] = {}
        #: Invokes per lap, counted as the capture records them
        #: (``plans.graph_hits`` counts replayed invokes).
        self.invokes = 0
        #: The generated launch (``_compile``), once the capture compiled.
        self._run = None
        #: ``node.epoch`` when the launch checks behind it last passed.
        self._epoch = -1
        #: Every stamp a full compare has passed on.
        self._verified: set[_Exit] = set()
        #: Datums compared in full by entry checks (diagnostics).
        self.full_compares = 0

    # -- capture finalization -------------------------------------------------
    def _fail(self, reason: str) -> None:
        self.replayable = False
        self.reason = reason

    def _finalize(self, rec: GraphRecorder, h_submit_end: float) -> None:
        """Compile the period ``rec`` recorded, whose submission left the
        host clock at ``h_submit_end``, into per-stream opcode programs and
        prove replayability; on any failed proof the graph stays usable
        through the fallback path only."""
        sched = self._sched
        entry = rec.entry
        self.generation = sched._graph_generation
        self.launches = 0
        if rec.gen0 != self.generation:
            return self._fail(
                "steady state changed during capture (weight rebalance, "
                "device retirement, eviction or chunking)"
            )
        if rec.fail:
            return self._fail(rec.fail)
        if not rec.commands:
            return self._fail("empty capture: no commands were submitted")
        events = rec.events
        E = len(events)
        if E == 0:
            return self._fail("capture produced no events")
        S0 = events[0].seq
        for i, ev in enumerate(events):
            if ev.seq != S0 + i:
                return self._fail("event creation window is not contiguous")
            if not ev.recorded:
                return self._fail(
                    f"captured event {ev.label!r} was never recorded"
                )
        # Host clock must have moved only through host_advance and host
        # syncs (a recovery or mitigation pass mid-capture jumps it
        # directly).
        if rec.h != h_submit_end:
            return self._fail(_CLOCK)
        slot_of = {ev: i for i, ev in enumerate(events)}
        marked = {did for did, _ in rec.marks} | rec.regions

        # -- entry structure and exit state of every touched datum ------------
        monitor = sched.monitor
        exit_snap = snapshot_monitor(monitor)
        consumed: dict[int, set[int]] = {}
        for did, loc in rec.war_log:
            consumed.setdefault(did, set()).add(loc)
        for did in entry:
            if did not in exit_snap:  # pragma: no cover - states persist
                return self._fail("a datum's state vanished during capture")
        captured = []
        for did, ex in exit_snap.items():
            en = entry.get(did)
            if en is None:
                return self._fail(
                    "a datum first touched during capture has no "
                    "steady-state entry snapshot"
                )
            # A marked datum is always captured: its launch re-applies
            # the mark.
            if did in consumed or did in marked or en != ex:
                captured.append(did)
        # Where each entry event sits; a launch re-reads it there.
        holders: dict[Event, list[tuple]] = {}
        for did in captured:
            for pos, ev in _positions(did, entry[did], consumed.get(did, ())):
                if ev is not None:
                    holders.setdefault(ev, []).append(pos)
        refs: list[tuple[tuple, ...]] = []
        ref_of: dict[Event, int] = {}

        def ref(ev: Event) -> int | None:
            r = ref_of.get(ev)
            if r is None:
                group = holders.get(ev)
                if group is None:
                    return None
                r = ref_of[ev] = len(refs)
                refs.append(tuple(group))
            return r

        shape: dict[int, tuple] = {}
        exits: dict[int, tuple] = {}
        # A period with marks or syncs replays one lap per launch.
        fixed = not (rec.marks or rec.regions or rec.cuts)
        for did in captured:
            plan = self._datum_plan(
                did, entry[did], exit_snap[did], slot_of,
                consumed.get(did, set()), ref,
            )
            if isinstance(plan, str):
                return self._fail(plan)
            shape[did], exits[did], same = plan
            fixed = fixed and same
        # What a fixed point leaves at each entry position (a later lap
        # waits on it one period earlier).
        after: dict[tuple, Any] = {}
        if fixed:
            for did in captured:
                locs = consumed.get(did, ())
                for pos, ev in _positions(did, exit_snap[did], locs):
                    after[pos] = ev

        slot_refs: dict[int, int] = {}
        devices: set[int] = set()
        # Host syncs cut the period into segments, dispatched one after the
        # other, each with its host advances; checkpoint ck lies in segment
        # segment_of[ck].
        deltas: list[list[float]] = [[]]
        segment_of = [0]
        for d in rec.deltas:
            if d is None:
                deltas.append([])
            else:
                deltas[-1].append(d)
            segment_of.append(len(deltas) - 1)
        programs: list[list[tuple["Stream", list[tuple]]]] = [
            [] for _ in deltas
        ]
        for sid, cmds in rec.commands.items():
            stream = rec.streams[sid]
            lanes: dict[int, list[tuple]] = {}
            for cmd, ck in cmds:
                ops = lanes.setdefault(segment_of[ck], [])
                t = type(cmd)
                if t is EventWait:
                    ev = cmd.event
                    if ev is None:
                        return self._fail("captured wait without an event")
                    slot = slot_of.get(ev)
                    if slot is not None:
                        ops.append((0, ck, 0, slot))
                        continue
                    if not ev.recorded:
                        return self._fail(
                            f"wait on pre-capture event {ev.label!r} "
                            "that never recorded"
                        )
                    r = ref(ev)
                    if r is None:
                        return self._fail(
                            f"wait on pre-capture event {ev.label!r} the "
                            "monitor holds at no position"
                        )
                    if not fixed:  # one lap: the entry event itself
                        ops.append((0, ck, 2, r))
                        continue
                    nxt = [after.get(p) for p in refs[r]]
                    succ = nxt[0]
                    if any(x is not succ for x in nxt):
                        return self._fail(
                            f"positions of pre-capture event {ev.label!r} "
                            "end the period holding different events"
                        )
                    if succ is ev:  # untouched constant
                        ops.append((0, ck, 2, r))
                        continue
                    slot = slot_of.get(succ)
                    if slot is None or slot_refs.setdefault(slot, r) != r:
                        return self._fail(
                            f"previous-period event {ev.label!r} is not "
                            "refreshed by one captured slot — the warm-up "
                            "iteration was not steady-state"
                        )
                    ops.append((0, ck, 1, slot))
                elif t is EventRecord:
                    slot = slot_of.get(cmd.event)
                    if slot is None:
                        return self._fail(
                            "captured record of a pre-capture event"
                        )
                    ops.append((1, ck, slot))
                elif t in (KernelLaunch, Memcpy, HostOp):
                    if t is KernelLaunch:
                        devices.add(stream.device)
                    elif t is Memcpy:
                        devices.update(
                            d for d in (cmd.src, cmd.dst) if d != HOST
                        )
                    # SimNode lowered the command at enqueue (cmd.op).
                    op = cmd.op
                    ops.append((op[0], ck, *op[2:]))
                else:
                    return self._fail(
                        f"unreplayable command type {t.__name__}"
                    )
            for g, ops in lanes.items():
                programs[g].append((stream, ops))

        bounds = [0, *(t for t, _ in rec.cuts), len(rec.touches)]
        self._segments = [
            (
                GraphSegment(programs[g]),
                deltas[g],
                [(m.touch, b) for m, b in rec.touches[bounds[g]:bounds[g + 1]]],
            )
            for g in range(len(programs))
        ]
        self._marks = list(rec.marks)
        self._cuts = [e for _, e in rec.cuts]
        self._K = len(rec.deltas) + 1
        self._E = E
        self._slot_labels = [ev.label for ev in events]
        self._devices = devices
        self._refs = refs
        self._slot_refs = sorted(slot_refs.items())
        self._shape = shape
        self._exit = exits
        self.fixed_point = fixed
        self._compile(entry)
        self.replayable = True
        self.reason = ""

    def _datum_plan(
        self,
        did: int,
        en: tuple,
        ex: tuple,
        slot_of: dict[Event, int],
        consumed: set[int],
        ref,
    ) -> str | tuple:
        """One datum's entry structure, exit state and whether the period
        is a fixed point for it.

        Every event the period leaves must be re-materializable: none, a
        window event (the launch creates a fresh one per slot) or an
        entry event (``ref`` binds it to the positions that held it, which
        a launch re-reads). A read list a writer consumes must end the
        period holding only window events; any other list may only grow by
        a tail of window events (compaction may drop completed entry
        reads). The datum is a fixed point when the exit has the entry's
        structure and every event is left in place or refreshed by a slot,
        so lap ``k + 1`` starts where lap ``k`` started. Returns a failure
        reason, or ``(entry structure, exit state, fixed point)``."""
        e_sid, _, e_mode, e_aggs, e_pend, e_lost, e_shadow, e_marks = en
        x_sid, x_utd, x_mode, x_aggs, x_pend, x_lost, x_shadow, x_marks = ex
        if e_sid < 0 or x_sid < 0:
            return "residency geometry id table is full"

        def source(ev):
            """None, a slot ``s >= 0`` or an entry ref ``r`` as ``-1 - r``;
            False if the event is neither a window nor an entry event."""
            if ev is None:
                return None
            s = slot_of.get(ev)
            if s is not None:
                return s
            r = ref(ev)
            return False if r is None else -1 - r

        insts = []
        for loc, x_insts in x_utd:
            row = []
            for rect, ev in x_insts:
                src = source(ev)
                if src is False:
                    return (
                        "an up-to-date instance carries an event from "
                        "neither the capture window nor the entry state"
                    )
                row.append((rect, src))
            insts.append((loc, tuple(row)))
        aggs = []
        for d, ev in x_aggs:
            src = source(ev)
            if src is False:
                return (
                    "an aggregation source carries an event from neither "
                    "the capture window nor the entry state"
                )
            aggs.append((d, src))
        # An aggregation shadow is either the period's own (partials and
        # aggregation both captured) or left alone.
        shadow = None
        if x_shadow is not None:
            mode, sources, hev = x_shadow
            if all(
                ev is None or ev in slot_of
                for ev in (hev, *(ev for _, ev in sources))
            ):
                shadow = (
                    mode,
                    tuple((d, slot_of.get(ev)) for d, ev in sources),
                    slot_of.get(hev),
                )
            elif x_shadow == e_shadow:
                shadow = "keep"
            else:
                return "aggregation shadow changed across the captured period"

        e_pend_map, x_pend_map = dict(e_pend), dict(x_pend)
        e_mark_map, x_mark_map = dict(e_marks), dict(x_marks)
        replace, shapes = [], []
        for loc in sorted(consumed):
            x_evs = x_pend_map.get(loc, ())
            slots = tuple(slot_of.get(ev, -1) for ev in x_evs)
            if -1 in slots:
                return (
                    "a consumed pending-read list ends the period with a "
                    "pre-capture event"
                )
            replace.append((loc, slots, x_mark_map.get(loc)))
            shapes.append(
                (loc, len(e_pend_map.get(loc, ())), e_mark_map.get(loc))
            )
        tails = []
        for loc, x_evs in x_pend:
            if loc in consumed:
                continue
            k = len(x_evs)
            while k and x_evs[k - 1] in slot_of:
                k -= 1
            if k and not e_pend_map.get(loc):
                return "a pending-read list grew by a pre-capture event"
            if k < len(x_evs):
                tails.append(
                    (loc, tuple(slot_of[ev] for ev in x_evs[k:]))
                )
        for loc, e_evs in e_pend:
            if e_evs and loc not in x_pend_map and loc not in consumed:
                return "a pending-read list vanished without a writer"

        at = dict(_positions(did, en, consumed))
        nones = tuple(pos[1:] for pos, ev in at.items() if ev is None)
        fixed = (
            e_sid == x_sid
            and e_mode is x_mode
            and e_lost == x_lost
            and [d for d, _ in e_aggs] == [d for d, _ in x_aggs]
            and all(
                len(slots) == n and mark == e_mark
                for (_, slots, mark), (_, n, e_mark) in zip(replace, shapes)
            )
            and all(
                (ev is None) == (at[pos] is None)
                and (ev is None or ev in slot_of or ev is at[pos])
                for pos, ev in _positions(did, ex, consumed)
            )
        )
        return (
            (
                e_sid,
                e_mode,
                e_lost,
                tuple(d for d, _ in e_aggs),
                tuple(shapes),
                nones,
            ),
            (
                x_sid,
                x_mode,
                x_lost,
                tuple(insts),
                tuple(aggs),
                shadow,
                tuple(replace),
                tuple(tails),
            ),
            fixed,
        )

    def _compile(self, entry: dict[int, tuple]) -> None:
        """Generate the fast launch ``_run(graph, n)``: the whole launch
        as one function (:func:`_launch_code`), bound to this graph's
        values by position. It returns the node time, or None when the
        steady state does not hold (nothing written)."""
        key, values = self._lower(entry)
        sched = self._sched
        ns: dict[str, Any] = {
            "Event": Event, "I": _Instance, "compare": _compare,
            "sched": sched, "node": sched.node,
            "eng": sched.node.engine, "state": sched.monitor._state,
            "plans": sched.plans, "mitigator": sched._mitigator,
            "verified": self._verified, "gen": self.generation,
            "invokes": self.invokes, "boundary": [0.0] * self._E,
        }
        ns.update((f"c{i}", v) for i, v in enumerate(values))
        exec(_launch_code(key), ns)
        # Popped, not read: ``ns`` is the function's globals, so keeping
        # it in them would make a cycle that holds this graph's values
        # until a cyclic collection.
        self._run = ns.pop("launch")

    def _lower(self, entry: dict[int, tuple]) -> tuple[tuple, list]:
        """This graph's launch as a structure key and the values it binds:
        the key spells out the checks, host work and exit with every value
        (datum ids, locations, shapes, segments, advances, touches, rects,
        geometry ids, labels, stamps) replaced by its index ``i`` in the
        values, bound as ``c{i}``. Graphs of one structure have one key."""
        values: list = []

        def val(x) -> int:
            values.append(x)
            return len(values) - 1

        # The entry check compares datums in capture order: which stamps a
        # refused launch verifies before it stops depends on it.
        dids = list(self._shape)
        index = {did: j for j, did in enumerate(dids)}
        datums = []
        for did in dids:
            shape = self._shape[did]
            datums.append((
                val(did), val(shape),
                tuple(
                    (val(loc), length, None if mark is None else val(mark))
                    for loc, length, mark in shape[4]
                ),
                tuple(
                    (val(loc), idx) for kind, loc, idx in shape[5]
                    if kind == _READ
                ),
            ))
        refs = tuple(
            tuple((index[d], kind, val(loc), idx) for d, kind, loc, idx in g)
            for g in self._refs
        )
        segments = tuple(
            (
                val(segment),
                tuple(val(d) for d in deltas),
                tuple((val(touch), val(buf)) for touch, buf in touches),
            )
            for segment, deltas, touches in self._segments
        )
        marks = tuple((index[did], ck) for did, ck in self._marks)

        tail = tuple(
            sorted({s for x in self._exit.values() for _, t in x[7] for s in t})
        )
        done: set[int] = set()  # last-lap slots outside read tails

        def src(s) -> str:
            """One exit event (``_datum_plan``'s encoding) as code."""
            if s is None:
                return "None"
            if s < 0:
                return f"e{-1 - s}"
            if s in tail:
                return f"last[{tail.index(s)}]"
            done.add(s)
            return f"v{s}"

        def mapping(pairs) -> tuple:
            return tuple((val(d), src(s)) for d, s in pairs)

        exits = []
        #: Per segment: ``(datum, loc) -> slots`` appended to that read
        #: list, in list order.
        appends: list[dict] = [{} for _ in range(len(self._cuts) + 1)]
        for j, did in enumerate(dids):
            sid, mode, lost, insts, aggs, shadow, replace, tails = (
                self._exit[did]
            )
            carries = self._carries(did, entry[did])
            e_len = {loc: len(row) for loc, row in entry[did][1]}
            utd = []
            for loc, row in insts:
                items = []
                for rect, s in row:
                    i = carries.pop((loc, rect, s), None)
                    items.append((val(rect), src(s)) if i is None else i)
                if loc in e_len and items == list(range(e_len[loc])):
                    items = None  # the entry's list, kept
                utd.append((val(loc), None if items is None else tuple(items)))
            if shadow is not None and shadow != "keep":
                smode, sources, hev = shadow
                shadow = (val(smode), mapping(sources), src(hev))
            exits.append((
                j, tuple(utd), val(sid), val(mode), val(lost), mapping(aggs),
                shadow,
                tuple(
                    (val(loc), tuple(map(src, slots)),
                     None if mark is None else val(mark))
                    for loc, slots, mark in replace
                ),
                val(_Exit()),
            ))
            for loc, slots in tails:
                for s in slots:
                    g = bisect.bisect_right(self._cuts, s)
                    appends[g].setdefault((j, loc), []).append(s)
        labels = self._slot_labels
        key = (
            self.fixed_point, self._E, self._K, self._sched._mitigator is not None,
            tuple(datums), refs, tuple(self._slot_refs), segments, marks,
            tuple(exits), tail,
            tuple(val(labels[s]) for s in tail),
            tuple((s, val(labels[s])) for s in sorted(done)),
            tuple(
                tuple((j, val(loc), tuple(slots))
                      for (j, loc), slots in group.items())
                for group in appends
            ),
        )
        return key, values

    def _carries(self, did: int, en: tuple) -> dict[tuple, int]:
        """``(loc, rect, source) -> idx``: the entry instances of one datum
        an exit row may carry over, because the entry check guarantees
        their event — None at a required-none position, an entry ref at
        one of its group's positions."""
        utd = dict(en[1])
        out: dict[tuple, int] = {}
        for kind, loc, idx in self._shape[did][5]:
            if kind == _INST:
                out.setdefault((loc, utd[loc][idx][0], None), idx)
        for r, group in enumerate(self._refs):
            for d, kind, loc, idx in group:
                if d == did and kind == _INST:
                    out.setdefault((loc, utd[loc][idx][0], -1 - r), idx)
        return out

    @property
    def expired(self) -> bool:
        """Whether no launch can take the fast path any more: the capture
        did not compile, or the scheduler's steady state changed since."""
        return (
            not self.replayable
            or self._sched._graph_generation != self.generation
        )

    # -- launch ---------------------------------------------------------------
    def launch(self, n: int = 1) -> float:
        """Re-dispatch the captured period ``n`` times; returns the
        simulated time afterwards (the period's commands are fully
        drained, like ``wait_all``). A transition graph replays one lap
        only: ``n > 1`` takes the fallback.

        Runs the generated launch (``_run``) when the frozen steady state
        still holds; otherwise falls back to re-invoking the recorded
        calls through the normal scheduler path (bit-identical results
        either way — the fast path only skips host-side work).
        """
        sched = self._sched
        node = sched.node
        clear = self._epoch == node.epoch
        # Releasing a scheduler drops its streams, which moves the epoch.
        if not clear and sched._released:
            # The scheduler's lease ended (job-server preemption,
            # DESIGN.md §13): its streams are gone from the node and its
            # buffers are freed, so neither the macro-command nor the
            # eager fallback has anything valid to drive. The workload
            # must re-capture on the scheduler of its next lease.
            raise GraphCaptureError(
                "iteration graph belongs to a released scheduler; "
                "re-capture after resuming on a live scheduler"
            )
        if node.graph_recorder is not None:
            raise GraphCaptureError(
                "cannot launch an iteration graph while a capture is "
                "recording"
            )
        if n <= 0:
            return node.time
        self.launches += 1
        self.replayed_laps += n
        run = self._run
        if (
            run is not None
            and (n == 1 or self.fixed_point)
            and (clear or self._node_clear())
        ):
            t = run(self, n)
            if t is not None:
                return t
        for _ in range(n):
            for fn, args, kwargs in self.calls:
                fn(*args, **kwargs)
        return sched.wait_all()

    def _node_clear(self) -> bool:
        """The launch checks only a node event can fail (``node.epoch``):
        the replay skips per-dispatch fault checks, so every permanent
        failure must already have happened, on no device the graph uses,
        and nothing else in the fault plan may be armed. Fault counters
        are not replayed: every spec is exhausted by now and counts only
        grow, so no later dispatch's outcome depends on them. A pass holds
        until the epoch moves."""
        node = self._sched.node
        now = node.time
        for d, ft in node.engine.dead.items():
            if ft > now or d in self._devices:
                return False
        if node.faults.armed(now):
            return False
        self._epoch = node.epoch
        return True


class Call(NamedTuple):
    """One call of a :class:`Loop`'s period: the arguments of its
    ``AnalyzeCall`` and of every ``Invoke`` of it (paper Table 2)."""

    kernel: Kernel
    containers: tuple
    grid: Grid | None = None
    constants: Mapping[str, Any] | None = None


class Loop:
    """One steady period of calls on one scheduler, and its graph driver.

    An iterative workload re-submits the same ``period`` calls, one per
    iteration: a ping-pong between two buffers has period 2, a call whose
    containers never change has period 1, and a chain of layers (LeNet's
    forward pass, a training step) runs each of its calls once. Each
    :class:`Call` carries its own kernel, containers, grid and constants;
    :meth:`declare` runs each call's ``AnalyzeCall`` once, so iteration
    ``i`` re-invokes ``calls[i % period]`` and builds nothing.
    :meth:`replay` captures one period as an :class:`IterationGraph` and
    launches it; :meth:`run` runs a stretch of iterations between host
    marks, syncs and gathers (a cluster tick, a served request batch) as
    a transition graph. The graphs belong to this loop's scheduler, so a
    workload resuming on a new scheduler (a rebuilt cluster node, say)
    declares a new loop and captures again.
    """

    def __init__(self, sched: "Scheduler", calls):
        self.sched = sched
        self.calls = tuple(calls)
        #: Iterations before the submitted calls repeat.
        self.period = len(self.calls)
        #: Each call's submission, bound once: ``invoke`` or, for an
        #: unmodified routine, ``invoke_unmodified``.
        self._steps = [
            functools.partial(
                sched.invoke_unmodified if kernel.raw else sched.invoke,
                kernel, *containers, grid=grid, constants=constants,
            )
            for kernel, containers, grid, constants in self.calls
        ]
        #: The datum each call writes: its first output container's.
        self._outs = [
            [x.datum for x in c.containers if isinstance(x, OutputContainer)][0]
            for c in self.calls
        ]
        #: The captured period, once :meth:`replay` has run.
        self.graph: IterationGraph | None = None
        #: :meth:`run`'s slot table: phase of the period a run starts at
        #: -> ``(shape, graph or None)``, the shape of the last run from
        #: there and its graph (None until the run that captures it).
        self.slots: dict[int, tuple] = {}
        #: ``(datum, rect)`` of every region :meth:`run` has checked.
        self._checked: set[tuple] = set()
        #: Diagnostics: captures performed / periods or runs launched as
        #: a graph.
        self.captures = 0
        self.replayed = 0

    @classmethod
    def declare(cls, sched, calls) -> "Loop":
        """Analyze each call of the period once and return its loop."""
        loop = cls(sched, calls)
        for kernel, containers, grid, constants in loop.calls:
            sched.analyze_call(kernel, *containers, grid=grid, constants=constants)
        return loop

    def step(self, i: int):
        """Submit iteration ``i``; returns its task handle."""
        return self._steps[i % self.period]()

    def out(self, i: int):
        """The datum iteration ``i`` writes."""
        return self._outs[i % self.period]

    def submit(self, n: int = 1) -> None:
        """Submit ``n`` whole periods from iteration 0, eagerly and without
        waiting (an application's training or update iterations)."""
        for _ in range(n):
            for step in self._steps:
                step()

    def measure(self, warmup: int, iters: int) -> float:
        """Steady-state simulated seconds per period: :meth:`submit`
        ``warmup`` periods and drain, then time ``iters`` more."""
        self.submit(warmup)
        t0 = self.sched.wait_all()
        self.submit(iters)
        return (self.sched.wait_all() - t0) / iters

    def warm_up(self, start: int | None = None) -> None:
        """Submit the period from iteration ``start`` and drain it: pays
        the host->device distribution of the inputs and leaves the
        monitor in the steady state a capture freezes. Without ``start``,
        iteration 0 alone (the benches' warm-up, after which their drivers
        submit from iteration 1)."""
        lo = start or 0
        for i in range(lo, lo + (1 if start is None else self.period)):
            self.step(i)
        self.sched.wait_all()

    def replay(self, start: int, n: int) -> None:
        """Run ``n`` periods from iteration ``start`` through the iteration
        graph and drain them: the benches' steady-state driver
        (:func:`repro.bench.workloads.steady`), with no host work between
        periods. A loop holding no graph yet captures the first of them
        and launches the other ``n - 1``."""
        if n <= 0:
            return
        if self.graph is None:
            with self.sched.capture() as graph:
                for i in range(start, start + self.period):
                    self.step(i)
            self.graph = graph
            self.captures += 1
            n -= 1
        if n:
            self.graph.launch(n)
            self.replayed += n

    def run(
        self, start: int, n: int, marks: tuple = (), syncs: tuple = (),
        gathers: tuple = (),
    ) -> float:
        """Run iterations ``start..start+n-1`` as one transition and drain;
        returns the node time.

        The application has written the host buffers of the ``marks``:
        each is a datum, written whole, or a ``(datum, rect)`` pair whose
        ``rect`` was written (the ghost rows a cluster agent's exchange
        wrote, say, which it owes to its next run and nothing else reads
        first). They are marked host-dirty first (their upload joins the
        first call that reads them). A host sync precedes the ``k``-th
        iteration of the run for each ``k`` in ``syncs``. Then every
        region in ``gathers`` of the last iteration's output is gathered
        to the host; a ``None`` region gathers it whole. Each region is
        checked against its datum once per loop, the first time it joins
        a run.

        The run starts from wherever eager work between runs left the
        monitor, so each phase of the period a run starts at keeps one
        graph in :attr:`slots` whose entry check covers that work. The
        first run of a shape is eager (it still distributes the inputs),
        the second is captured and every later one is one launch. A launch
        whose entry state does not hold takes the eager fallback and the
        graph is kept; a graph that has :attr:`~IterationGraph.expired`
        starts over like a first run, and so does a run of another shape,
        which replaces the phase's graph. A scheduler that cannot capture
        runs every time eagerly, and so does a shape whose whole gather
        finds pending partials (their host combine is not captured).
        """
        sched = self.sched
        phase = start % self.period
        shape = (n, marks, syncs, gathers)
        slot = self.slots.get(phase)
        if slot is None or slot[0] != shape:
            return self._eager(start, phase, shape)
        graph = slot[1]
        if graph is None:
            with sched.capture() as graph:
                self._submit(start, *shape)
            self.captures += 1
            self.slots[phase] = shape, graph
            return sched.node.time
        if graph.expired:
            return self._eager(start, phase, shape)
        self.replayed += 1
        return graph.launch(1)

    def _eager(self, start: int, phase: int, shape: tuple) -> float:
        """:meth:`run` a shape eagerly, as its first run: the next run of
        it from ``phase`` captures, unless this one cannot be recorded."""
        sched = self.sched
        if self._submit(start, *shape) and sched.capturable:
            self.slots[phase] = shape, None
        else:
            self.slots.pop(phase, None)
        return sched.wait_all()

    def _check(self, datum, rect) -> None:
        """The scheduler's region check, once per ``(datum, rect)``."""
        key = (datum, rect)
        if key not in self._checked:
            self.sched._check_region(datum, rect)
            self._checked.add(key)

    def _submit(self, start, n, marks, syncs, gathers) -> bool:
        """Submit one :meth:`run`; returns whether a capture can record it
        (no whole gather found pending partials)."""
        sched = self.sched
        for mark in marks:
            if type(mark) is tuple:
                self._check(*mark)
                sched.mark_checked_region_dirty(*mark)
            else:
                sched.mark_host_dirty(mark)
        for k in range(n):
            if k in syncs:
                sched.wait_all()
            self.step(start + k)
        out = self.out(start + n - 1)
        capturable = True
        for region in gathers:
            if region is not None:
                self._check(out, region)
                sched._gather_region(out, region)
                continue
            if sched.monitor.needs_aggregation(out):
                capturable = False
            sched.gather_async(out)
        return capturable
