"""The Segment Location Monitor (§4.4, Algorithm 2).

Tracks all host and device instances of each datum. Per datum it keeps:

* ``up_to_date`` — for each location (host or device), the list of datum
  regions (in *actual* coordinates) whose current values are resident
  there, each with the event that signals its producer finished;
* the *aggregation state* — set when a duplicated output pattern
  (Reductive/Unstructured) left per-device partial results that must be
  combined before the datum can be read (Algorithm 2, lines 15–17);
* ``pending_reads`` — completion events of transfers/kernels that read an
  instance, which a subsequent writer must wait on (WAR hazards). A read
  that completed at or before the host clock can no longer delay any
  writer (the writer's wait is submitted at or after that host time), so
  the lists are compacted of such reads, amortized: a list is compacted
  only once it reaches :data:`_READ_FLOOR` entries or has doubled since
  its last compaction. Lists a period reads and then writes stay below
  the floor and keep every wait; lists of never-written datums stay
  proportional to their live readers.

:meth:`compute_copies` is Algorithm 2: given a required segment and a
target location, produce the minimal list of copy operations, preferring a
single-source copy and otherwise intersecting with every other device's
``lastOutput`` regions (the paper notes the naive O(g) scan is fine for
g < 10 devices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from repro.errors import SchedulingError, UnrecoverableError
from repro.hardware.topology import HOST
from repro.patterns.base import Aggregation
from repro.sim.commands import Event
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datum import Datum


class CopyOp(NamedTuple):
    """One planned segment copy (produces one peer-to-peer/host transfer)."""

    src: int  # location: device index or HOST
    dst: int
    actual: Rect  # region in actual datum coordinates
    #: Event of the source instance's producer; the copy waits on it.
    wait: Optional[Event]
    #: Index of the source instance within ``up_to_date[src]`` at planning
    #: time — provenance that lets an invocation plan replay the same copy
    #: decision against an identical residency state (see ``fingerprint``).
    src_index: int = -1


@dataclass(slots=True)
class _Instance:
    rect: Rect
    event: Optional[Event]  # producer completion; None = always ready


@dataclass(slots=True)
class _DatumState:
    #: location -> up-to-date instances (actual coordinates).
    up_to_date: dict[int, list[_Instance]] = field(default_factory=dict)
    #: Pending aggregation of duplicated partials (device -> event).
    agg_mode: Aggregation = Aggregation.NONE
    agg_sources: dict[int, Optional[Event]] = field(default_factory=dict)
    #: location -> events of in-flight readers of instances there.
    pending_reads: dict[int, list[Event]] = field(default_factory=dict)
    #: Canonical geometry state id (see ``LocationMonitor._sid``); -1 means
    #: not yet assigned — recomputed lazily after a non-memoized mutation.
    sid: int = -1
    #: Fault recovery (DESIGN.md §8): a partial result needed for this
    #: datum's aggregation died with its device — the datum is unreadable
    #: until a writer supersedes the lost partials.
    agg_lost: bool = False
    #: Snapshot ``(mode, sources, host event)`` taken by
    #: :meth:`mark_aggregated`, so a recovery pass can restore the
    #: pending-aggregation state if the aggregation itself was cancelled
    #: (its host event never recorded).
    agg_shadow: tuple | None = None
    #: location -> length its pending-read list must reach before the
    #: next compaction; absent means :data:`_READ_FLOOR`.
    read_marks: dict[int, int] = field(default_factory=dict)
    #: The compiled graph exit whose launch left this state (DESIGN.md
    #: §12); every mutation clears it, so a stamped state is exactly what
    #: that exit wrote, read tails aside.
    stamp: object = None

    def add_read(self, loc: int, event: Event, host_time: float) -> None:
        """Append an in-flight reader at ``loc``, compacting the list
        when it reached its mark (see :meth:`compact_reads`)."""
        self.stamp = None
        reads = self.pending_reads.get(loc)
        if reads is None:
            self.pending_reads[loc] = [event]
            return
        reads.append(event)
        n = len(reads)
        # A stored mark always exceeds the floor.
        if n >= _READ_FLOOR and n >= self.read_marks.get(loc, n):
            self.compact_reads(loc, host_time)

    def compact_reads(self, loc: int, host_time: float) -> None:
        """Drop the reads at ``loc`` recorded at or before ``host_time``
        (they cannot delay a writer submitted from then on) and set the
        list's next mark to twice what is left, at least the floor."""
        self.stamp = None
        reads = self.pending_reads.get(loc)
        if reads:
            reads[:] = [
                e for e in reads
                if e.recorded_at is None or e.recorded_at > host_time
            ]
        mark = 2 * len(reads or ())
        if mark > _READ_FLOOR:
            self.read_marks[loc] = mark
        else:
            self.read_marks.pop(loc, None)

    def take_reads(self, loc: int) -> list[Event]:
        """Remove and return the pending reads at ``loc``."""
        self.stamp = None
        self.read_marks.pop(loc, None)
        return self.pending_reads.pop(loc, [])


#: Event-source markers in memoized transition templates. Inherited events
#: are always resolved *positionally* — a template stores "the event of the
#: pre-state instance at (loc, idx)", never an event value: state ids key on
#: geometry only, so the same transition may replay on a different datum
#: whose analogous instances carry different events.
_SRC_OP = "op"  # the mutating operation's own event
_AMBIGUOUS = "ambiguous"  # event object shared by several pre instances

#: Bounds on the memoization tables: a workload whose residency geometry
#: never revisits a state stops memoizing instead of growing unboundedly.
_GEOM_LIMIT = 65536
_TRANS_LIMIT = 16384
#: Pending-read lists shorter than this are never compacted.
_READ_FLOOR = 64


class LocationMonitor:
    """Per-datum instance tracking and Algorithm 2.

    Iterative workloads drive the monitor through a *periodic* sequence of
    residency states (a Game-of-Life tick leaves each board's instance
    geometry exactly where the previous tick on that board left it), so the
    monitor doubles as an incrementally-memoized automaton: every distinct
    instance geometry gets a small canonical state id, and the hot
    mutations (:meth:`mark_copied`, :meth:`mark_written`) memoize their
    transitions ``(state id, op) -> (new state id, instance template)``.
    In steady state a mutation is one dictionary lookup plus rebuilding a
    handful of instances from the template — the rectangle subtraction
    algebra runs only the first time each transition is seen. Setting
    :attr:`amortize` to False disables all cross-invocation memoization
    (the uncached-baseline mode of ``repro.bench --overhead``).
    """

    def __init__(
        self,
        geom_ids: dict[tuple, int] | None = None,
        transitions: dict[tuple, tuple[int, tuple]] | None = None,
    ) -> None:
        self._state: dict[int, _DatumState] = {}
        self._datums: dict[int, "Datum"] = {}
        #: Cross-invocation memoization switch (see class docstring).
        self.amortize = True
        # The two tables are geometry only — no datum, event or monitor
        # appears in a key or a template — so a caching scheduler passes
        # its node's shared ones (DESIGN.md §7); default: private.
        #: geometry fingerprint -> canonical state id.
        self._geom_ids = {} if geom_ids is None else geom_ids
        #: (state id, kind, loc, rect) -> (post state id, template).
        self._transitions = {} if transitions is None else transitions
        #: Memoized-transition replays vs. slow-path mutations (diagnostics).
        self.transition_hits = 0
        self.transition_misses = 0
        #: Iteration-graph capture hook (DESIGN.md §12): while set, every
        #: ``take_war_events`` call logs its ``(id(datum), loc)`` key, so
        #: graph finalization can tell pending-read lists that were
        #: *replaced* during the captured period from lists that only grew.
        self.war_log: set[tuple[int, int]] | None = None

    # -- state access ------------------------------------------------------
    def _st(self, datum: "Datum") -> _DatumState:
        st = self._state.get(id(datum))
        if st is None:
            st = _DatumState()
            # A freshly-seen datum's authoritative copy is its host buffer.
            st.up_to_date[HOST] = [_Instance(datum.extent, None)]
            self._state[id(datum)] = st
            self._datums[id(datum)] = datum
        return st

    def instances(self, datum: "Datum", loc: int) -> list[Rect]:
        """Up-to-date regions of a datum at a location (for tests)."""
        return [i.rect for i in self._st(datum).up_to_date.get(loc, [])]

    def host_reads(self, datum: "Datum") -> tuple[Event, ...]:
        """The in-flight readers of the datum's host instance."""
        return tuple(self._st(datum).pending_reads.get(HOST, ()))

    def needs_aggregation(self, datum: "Datum") -> bool:
        return self._st(datum).agg_mode is not Aggregation.NONE

    def aggregation(self, datum: "Datum") -> tuple[Aggregation, dict[int, Optional[Event]]]:
        st = self._st(datum)
        if st.agg_lost:
            raise UnrecoverableError(
                f"datum {datum.name!r}: partial results needed for "
                "aggregation were lost with a failed device; no valid "
                "replica exists — restart from an application checkpoint"
            )
        return st.agg_mode, dict(st.agg_sources)

    # -- Algorithm 2 -----------------------------------------------------------
    def compute_copies(
        self,
        datum: "Datum",
        required: Iterable[Rect],
        target: int,
        prefer: Iterable[int] = (),
    ) -> list[CopyOp]:
        """Copy operations bringing ``required`` regions up to date at
        ``target``.

        Raises :class:`SchedulingError` if the datum has partial results
        pending aggregation (the scheduler must aggregate first) or if a
        region exists nowhere — the latter indicates a framework bug or a
        read of never-written data.
        """
        st = self._st(datum)
        if st.agg_mode is not Aggregation.NONE:
            raise SchedulingError(
                f"datum {datum.name!r} has partial results pending "
                "aggregation; gather/aggregate before reading it"
            )
        ops: list[CopyOp] = []
        have = [i.rect for i in st.up_to_date.get(target, [])]
        for rect in required:
            if rect.empty:
                continue
            missing = rect.subtract_all(have)  # lines 2-4: skip if up to date
            for piece in missing:
                ops.extend(self._plan_piece(st, datum, piece, target, prefer))
        return ops

    def _locations(
        self, st: _DatumState, target: int, prefer: Iterable[int]
    ) -> list[int]:
        """Candidate source locations, nearest first, host last."""
        locs = [l for l in st.up_to_date if l != target and l != HOST]
        pref = [l for l in prefer if l in locs]
        rest = sorted(l for l in locs if l not in pref)
        ordered = pref + rest
        if HOST in st.up_to_date:
            ordered.append(HOST)
        return ordered

    def _plan_piece(
        self,
        st: _DatumState,
        datum: "Datum",
        piece: Rect,
        target: int,
        prefer: Iterable[int],
    ) -> list[CopyOp]:
        locations = self._locations(st, target, prefer)
        # Lines 5-8: whole piece available at a single location.
        for loc in locations:
            for idx, inst in enumerate(st.up_to_date.get(loc, [])):
                if inst.rect.contains(piece):
                    return [CopyOp(loc, target, piece, inst.event, idx)]
        # Lines 9-14: assemble from intersections across locations.
        ops: list[CopyOp] = []
        remaining = [piece]
        for loc in locations:
            if not remaining:
                break
            for idx, inst in enumerate(st.up_to_date.get(loc, [])):
                next_remaining: list[Rect] = []
                for r in remaining:
                    inter = r.intersect(inst.rect)
                    if inter.empty:
                        next_remaining.append(r)
                    else:
                        ops.append(CopyOp(loc, target, inter, inst.event, idx))
                        next_remaining.extend(r.subtract(inter))
                remaining = next_remaining
                if not remaining:
                    break
        if remaining:
            raise SchedulingError(
                f"segment {remaining} of datum {datum.name!r} is not "
                "available at any location (read of never-written data?)"
            )
        return ops

    # -- fault recovery (DESIGN.md §8) -----------------------------------------
    def replicas(
        self,
        datum: "Datum",
        actual: Rect,
        exclude: Iterable[int] = (),
    ) -> list[tuple[int, Optional[Event]]]:
        """Locations holding a single up-to-date instance that covers
        ``actual``, with the instance's producer event — devices first
        (ascending), host last, ``exclude`` omitted. Used to pick an
        alternate source when a transfer faults transiently."""
        st = self._st(datum)
        excluded = set(exclude)
        found: list[tuple[int, Optional[Event]]] = []
        host: list[tuple[int, Optional[Event]]] = []
        for loc in sorted(st.up_to_date, key=lambda l: (l == HOST, l)):
            if loc in excluded:
                continue
            for inst in st.up_to_date[loc]:
                if inst.rect.contains(actual):
                    (host if loc == HOST else found).append((loc, inst.event))
                    break
        return found + host

    def ready_replicas(
        self,
        datum: "Datum",
        actual: Rect,
        exclude: Iterable[int] = (),
        dead: Iterable[int] = (),
    ) -> list[tuple[int, Optional[Event]]]:
        """Like :meth:`replicas`, but only instances whose producer event
        has already recorded, on locations not in ``dead``.

        A yet-unrecorded producer may itself (transitively) wait on the
        consumer the caller is about to re-route, and waiting on it would
        deadlock — so transfer retries, hedged transfers and speculative
        re-execution (DESIGN.md §11) all draw from this restricted set.
        """
        return [
            (loc, ev)
            for loc, ev in self.replicas(datum, actual, exclude)
            if (ev is None or ev.recorded) and loc not in dead
        ]

    # -- memory pressure (DESIGN.md §10) ---------------------------------------
    def has_partial_on(self, datum: "Datum", device: int) -> bool:
        """Whether the device holds an unaggregated partial of the datum.

        Partials are never evictable and never salvageable by a plain copy:
        moving one to the host without running its aggregation operator
        would corrupt the datum (Algorithm 2 lines 15-17).
        """
        st = self._st(datum)
        return st.agg_mode is not Aggregation.NONE and device in st.agg_sources

    def evictable(self, datum: "Datum", device: int) -> bool:
        """Whether the device's instances of the datum can be freed without
        losing data: every resident region must also be up to date at some
        *other* location (the eviction-safety invariant of DESIGN.md §10).

        A sole ``last_output`` copy is therefore never evictable directly —
        the scheduler must gather it to the host first (:meth:`sole_pieces`).
        Pending-aggregation partials are never evictable at all.
        """
        st = self._st(datum)
        if self.has_partial_on(datum, device):
            return False
        insts = st.up_to_date.get(device)
        if not insts:
            # Nothing the monitor knows about lives here; freeing the buffer
            # loses no tracked data (e.g. an input staging copy already
            # superseded everywhere).
            return True
        elsewhere = [
            i.rect
            for loc, others in st.up_to_date.items()
            if loc != device
            for i in others
        ]
        return all(not inst.rect.subtract_all(elsewhere) for inst in insts)

    def sole_pieces(
        self, datum: "Datum", device: int
    ) -> list[tuple[Rect, Optional[Event]]]:
        """Regions of the datum that are up to date *only* on ``device``,
        with their producer events — what a salvage pass must copy to the
        host before the device's buffer may be freed."""
        st = self._st(datum)
        out: list[tuple[Rect, Optional[Event]]] = []
        for inst in st.up_to_date.get(device, []):
            elsewhere = [
                i.rect
                for loc, others in st.up_to_date.items()
                if loc != device
                for i in others
            ]
            for piece in inst.rect.subtract_all(elsewhere):
                out.append((piece, inst.event))
        return out

    def drop_location(self, datum: "Datum", device: int) -> None:
        """Forget the device's instances of the datum (its buffer was
        evicted). Caller must have established evictability (or salvaged the
        sole pieces) first — this is bookkeeping, not a safety check."""
        st = self._st(datum)
        st.up_to_date.pop(device, None)
        st.take_reads(device)
        st.sid = -1

    def invalidate_for_recovery(self, dead: Iterable[int]) -> None:
        """Purge state a fault made untrue: instances on ``dead`` devices
        (their memory is gone) and instances whose producer event never
        recorded (the producing command was aborted before it ran — the
        monitor is updated optimistically at submit time).

        Submit-time *subtractions* (regions a cancelled writer stole from
        other locations) are deliberately not rolled back: resubmitting the
        cancelled tasks rewrites exactly those regions, so being
        conservative here costs at most some extra copies, never
        correctness. Cancelled aggregations are restored from their shadow
        snapshot; partials that died with a device set :attr:`agg_lost`.
        """
        dead = set(dead)
        for st in self._state.values():
            st.stamp = None
            # A cancelled aggregation (host event never recorded) reverts
            # the datum to partials-pending; a completed one is final.
            if st.agg_mode is Aggregation.NONE and st.agg_shadow is not None:
                mode, sources, ev = st.agg_shadow
                if ev is not None and not ev.recorded:
                    st.agg_mode = mode
                    st.agg_sources = dict(sources)
                st.agg_shadow = None
            for loc in list(st.up_to_date):
                if loc in dead:
                    del st.up_to_date[loc]
                    continue
                kept = [
                    i for i in st.up_to_date[loc]
                    if i.event is None or i.event.recorded
                ]
                if kept:
                    st.up_to_date[loc] = kept
                else:
                    del st.up_to_date[loc]
            # Readers that never ran impose no WAR constraint (waiting on
            # their events would deadlock); completed ones still do.
            st.read_marks.clear()
            for loc in list(st.pending_reads):
                if loc in dead:
                    del st.pending_reads[loc]
                    continue
                evs = [e for e in st.pending_reads[loc] if e.recorded]
                if evs:
                    st.pending_reads[loc] = evs
                else:
                    del st.pending_reads[loc]
            if st.agg_mode is not Aggregation.NONE:
                lost = [
                    d for d, ev in st.agg_sources.items()
                    if d in dead or (ev is not None and not ev.recorded)
                ]
                for d in lost:
                    del st.agg_sources[d]
                if lost:
                    # Unrecorded partials are rewritten when their task is
                    # resubmitted (mark_partial resets the flag); partials
                    # that died with their device are gone for good.
                    st.agg_lost = True
            st.sid = -1

    # -- steady-state replay support -------------------------------------------
    def states(
        self, dids: Iterable[int] | None = None
    ) -> dict[int, _DatumState]:
        """Per-datum states by datum id (all tracked datums, or the
        tracked ones among ``dids``), each with its geometry id ``sid``
        current (-1: uncacheable). Iteration graphs (DESIGN.md §12) read
        and refresh the monitor only through this view."""
        state = self._state
        out: dict[int, _DatumState] = {}
        for did in state if dids is None else dids:
            st = state.get(did)
            if st is not None:
                self._sid(st)
                out[did] = st
        return out

    def _sid(self, st: _DatumState) -> int:
        """Canonical id of the state's instance geometry (lazy).

        The fingerprint captures everything :meth:`compute_copies` decides
        on *except* producer events: which locations hold instances, their
        order, and every instance's rect. Two states with the same id yield
        the same copy decisions — same sources, same instance indices, same
        rects. Returns -1 (uncacheable) once the id table is full.
        """
        s = st.sid
        if s < 0:
            fp = tuple(
                (loc, tuple(i.rect for i in insts))
                for loc, insts in st.up_to_date.items()
            )
            ids = self._geom_ids
            s = ids.get(fp, -1)
            if s < 0 and len(ids) < _GEOM_LIMIT:
                s = len(ids)
                ids[fp] = s
            st.sid = s
        return s

    def fingerprint(self, datum: "Datum") -> Optional[int]:
        """Memoization key for the datum's residency geometry, or ``None``
        when the state is uncacheable (pending aggregation, or the id table
        overflowed). Plans key copy decisions on this and rebuild the ops
        via :meth:`replay_copies`, re-reading only the (current) events."""
        st = self._st(datum)
        if st.agg_mode is not Aggregation.NONE:
            return None
        s = self._sid(st)
        return s if s >= 0 else None

    def replay_copies(
        self,
        datum: "Datum",
        target: int,
        decisions: Iterable[tuple[int, int, Rect]],
    ) -> list[CopyOp]:
        """Rebuild copy ops from memoized ``(src, src_index, rect)``
        decisions, fetching each source instance's *current* producer event.
        Only valid when the datum's :meth:`fingerprint` equals the one the
        decisions were recorded under."""
        up_to_date = self._st(datum).up_to_date
        return [
            CopyOp(src, target, rect, up_to_date[src][idx].event, idx)
            for src, idx, rect in decisions
        ]

    # -- transition memoization ---------------------------------------------
    def _apply(
        self,
        template: tuple,
        pre: dict[int, list[_Instance]],
        op_event: Optional[Event],
    ) -> dict[int, list[_Instance]]:
        """Rebuild ``up_to_date`` from a memoized post-state template,
        resolving each instance's event from the pre-state (by position) or
        the mutating op's event.

        Templates encode reuse: a location whose instance list the
        transition left untouched stores ``None`` and inherits the pre list
        wholesale; an instance that survived unchanged stores ``(None,
        (loc, idx))`` and the pre object itself is carried over (instances
        are never mutated in place, so sharing is safe — the pre dict is
        discarded on return)."""
        new: dict[int, list[_Instance]] = {}
        for loc, entries in template:
            if entries is None:
                new[loc] = pre[loc]
                continue
            lst = []
            for rect, src in entries:
                if src is _SRC_OP:
                    lst.append(_Instance(rect, op_event))
                elif rect is None:
                    lst.append(pre[src[0]][src[1]])
                else:
                    lst.append(_Instance(rect, pre[src[0]][src[1]].event))
            new[loc] = lst
        return new

    def _record(
        self,
        key: tuple,
        pre: dict[int, tuple[_Instance, ...]],
        st: _DatumState,
        op_event: Optional[Event],
    ) -> None:
        """Memoize the transition just performed: canonicalize the post
        state and capture it as a template of (rect, event source) pairs."""
        st.sid = -1
        post = self._sid(st)
        if post < 0 or len(self._transitions) >= _TRANS_LIMIT:
            return
        instmap: dict[int, tuple[int, int]] = {}
        premap: dict[int, object] = {}
        for loc, insts in pre.items():
            for idx, inst in enumerate(insts):
                instmap[id(inst)] = (loc, idx)
                k = id(inst.event)
                # Provenance must be unambiguous: if two pre instances
                # share one event object, a surviving piece cannot be
                # attributed to a position, and a later same-geometry
                # state may hold different events at those positions.
                premap[k] = _AMBIGUOUS if k in premap else (loc, idx)
        template = []
        for loc, insts in st.up_to_date.items():
            pre_insts = pre.get(loc, ())
            if len(insts) == len(pre_insts) and all(
                a is b for a, b in zip(insts, pre_insts)
            ):
                template.append((loc, None))  # location untouched
                continue
            entries = []
            for inst in insts:
                # Survivor? Reuse the pre object at its position (checked
                # before the op-event test so a pre instance whose event
                # happens to equal ``op_event`` — e.g. both None — is not
                # misattributed to the op).
                src: object = instmap.get(id(inst))
                if src is not None:
                    entries.append((None, src))
                    continue
                ev = inst.event
                if ev is op_event:
                    entries.append((inst.rect, _SRC_OP))
                    continue
                src = premap.get(id(ev))
                if src is None or src is _AMBIGUOUS:
                    return  # unknown provenance; don't memoize
                entries.append((inst.rect, src))
            template.append((loc, tuple(entries)))
        self._transitions[key] = (post, tuple(template))

    # -- state transitions ---------------------------------------------------
    def mark_copied(
        self, datum: "Datum", target: int, actual: Rect, event: Optional[Event]
    ) -> None:
        """A copy landed ``actual`` at ``target`` (it is now up to date)."""
        st = self._st(datum)
        st.stamp = None
        if self.amortize and st.sid >= 0:
            key = (st.sid, 0, target, actual)
            hit = self._transitions.get(key)
            if hit is not None:
                self.transition_hits += 1
                post, template = hit
                st.up_to_date = self._apply(template, st.up_to_date, event)
                st.sid = post
                return
            self.transition_misses += 1
            pre = {loc: tuple(i) for loc, i in st.up_to_date.items()}
            self._insert(st.up_to_date.setdefault(target, []), actual, event)
            self._record(key, pre, st, event)
            return
        st.sid = -1
        self._insert(st.up_to_date.setdefault(target, []), actual, event)

    def mark_read(
        self,
        datum: "Datum",
        loc: int,
        event: Event,
        host_time: float = float("-inf"),
    ) -> None:
        """Register an in-flight reader of the instance at ``loc``;
        ``host_time`` is the host clock at submission, against which the
        list is compacted of completed reads (module docstring)."""
        self._st(datum).add_read(loc, event, host_time)

    def take_war_events(self, datum: "Datum", loc: int) -> list[Event]:
        """Events a writer at ``loc`` must wait for (consumes them)."""
        if self.war_log is not None:
            self.war_log.add((id(datum), loc))
        return self._st(datum).take_reads(loc)

    def mark_written(
        self, datum: "Datum", device: int, rect: Rect, event: Optional[Event]
    ) -> None:
        """A kernel wrote ``rect`` on ``device``: every other instance
        overlapping it is now stale; the device's instance is authoritative."""
        st = self._st(datum)
        st.stamp = None
        st.agg_mode = Aggregation.NONE
        st.agg_sources.clear()
        st.agg_lost = False
        st.agg_shadow = None
        if self.amortize and st.sid >= 0:
            key = (st.sid, 1, device, rect)
            hit = self._transitions.get(key)
            if hit is not None:
                self.transition_hits += 1
                post, template = hit
                st.up_to_date = self._apply(template, st.up_to_date, event)
                st.sid = post
                return
            self.transition_misses += 1
            pre = {loc: tuple(i) for loc, i in st.up_to_date.items()}
            self._mark_written_slow(st, device, rect, event)
            self._record(key, pre, st, event)
            return
        st.sid = -1
        self._mark_written_slow(st, device, rect, event)

    def _mark_written_slow(
        self, st: _DatumState, device: int, rect: Rect, event: Optional[Event]
    ) -> None:
        for loc, insts in st.up_to_date.items():
            if loc == device or not insts:
                continue
            # Copy-on-write: most instances don't overlap the written rect,
            # so the list is only rebuilt from the first affected entry on.
            updated: list[_Instance] | None = None
            for k, inst in enumerate(insts):
                ir = inst.rect
                if ir.overlaps(rect) or ir.empty:
                    if updated is None:
                        updated = insts[:k]
                    for part in ir.subtract(rect):
                        updated.append(_Instance(part, inst.event))
                elif updated is not None:
                    updated.append(inst)
            if updated is not None:
                st.up_to_date[loc] = updated
        self._insert(st.up_to_date.setdefault(device, []), rect, event)

    def mark_partial(
        self,
        datum: "Datum",
        mode: Aggregation,
        sources: dict[int, Optional[Event]],
    ) -> None:
        """A duplicated output pattern produced per-device partials: no
        location is up to date until aggregation combines them."""
        if mode is Aggregation.NONE:
            raise SchedulingError("mark_partial requires an aggregation mode")
        st = self._st(datum)
        st.stamp = None
        st.sid = -1
        st.up_to_date = {}
        st.agg_mode = mode
        st.agg_sources = dict(sources)
        st.agg_lost = False
        st.agg_shadow = None

    def mark_aggregated(self, datum: "Datum", event: Optional[Event]) -> None:
        """Host aggregation completed: host holds the authoritative datum.

        The pre-aggregation state is snapshotted so a fault-recovery pass
        can revert to partials-pending if the aggregation never ran."""
        st = self._st(datum)
        st.stamp = None
        st.sid = -1
        st.agg_shadow = (st.agg_mode, dict(st.agg_sources), event)
        st.agg_mode = Aggregation.NONE
        st.agg_sources.clear()
        st.up_to_date = {
            HOST: [_Instance(datum.extent, event)]
        }

    def mark_host_dirty(self, datum: "Datum", host_time: float) -> None:
        """The user modified the bound host buffer at ``host_time``:
        invalidate devices.

        Host reads that completed by ``host_time`` are dropped
        unconditionally (the compaction rule of the module docstring,
        without waiting for the mark): a datum re-uploaded on every call
        would otherwise carry a host read list per upload.
        """
        st = self._st(datum)
        st.compact_reads(HOST, host_time)
        st.sid = -1
        st.agg_mode = Aggregation.NONE
        st.agg_sources.clear()
        st.agg_lost = False
        st.agg_shadow = None
        st.up_to_date = {
            HOST: [_Instance(datum.extent, None)]
        }

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def _insert(insts: list[_Instance], rect: Rect, event: Optional[Event]) -> None:
        """Insert an instance, removing parts it supersedes."""
        if insts:
            out: list[_Instance] = []
            for inst in insts:
                if rect.contains(inst.rect):
                    continue
                if inst.rect.overlaps(rect):
                    for part in inst.rect.subtract(rect):
                        out.append(_Instance(part, inst.event))
                else:
                    out.append(inst)
            insts[:] = out
        insts.append(_Instance(rect, event))

    def host_covered(self, datum: "Datum") -> bool:
        """Whether the host instance covers the full datum (for tests)."""
        return not datum.extent.subtract_all(self.instances(datum, HOST))
