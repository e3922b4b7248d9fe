"""The multi-GPU Scheduler (§4.3, Algorithm 1) and host-level aggregators.

The scheduler mediates between the framework and the devices. Per
submitted task it:

1. constructs the Task and determines the grid segmentation (§2.1),
2. runs the per-pattern Segmenters to infer memory segmentation,
3. obtains allocated buffers from the Memory Analyzer,
4. computes required segment copies with the Segment Location Monitor,
5. distributes copy commands to the per-device invoker streams, and
6. queues the kernels, with GPU events enforcing memory consistency.

One compute stream plus two copy streams (one per copy engine direction)
are created per device — the simulation counterpart of the paper's
one-invoker-thread-per-device design with concurrent copy/compute queues.

Fault recovery (DESIGN.md §8): every loop that runs the simulation
(``wait``, ``wait_all`` and the eviction pre-flight's drain) goes through
one dispatcher, ``_drive``, which catches the engine's typed faults. A
:class:`~repro.errors.TransientTransferError`
is retried — from an alternate valid replica found via the Segment
Location Monitor when one exists — after a capped exponential backoff in
simulated time. A permanent :class:`~repro.errors.DeviceFault` (or an
injected allocation failure) retires the device: all queued commands are
aborted, the monitor is purged of state the fault made untrue, plans
segmented over the dead device are invalidated, and every incomplete task
and gather is resubmitted — in original submission order — across the
surviving devices. Recovery succeeds iff every incomplete task's inputs
still have a valid replica somewhere (host or surviving device); otherwise
:class:`~repro.errors.UnrecoverableError` tells the application to restart
from its own checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping, Optional


from repro.core.buffers import locate_virtual, locate_virtual_all
from repro.core.datum import Datum
from repro.core.graph import GraphRecorder, IterationGraph, snapshot_monitor
from repro.core.grid import Grid
from repro.core.location_monitor import CopyOp, LocationMonitor
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.core.plan import (
    COPY_MEMO_LIMIT,
    ChunkPlan,
    NodeTables,
    PlanCache,
    TaskPlan,
    build_chunk_plan,
    build_plan,
    check_plan,
    freeze_constants,
)
from repro.core.task import CostContext, Kernel, Task, TaskHandle
from repro.device_api.context import KernelContext
from repro.device_api.views import make_view
from repro.errors import (
    AllocationError,
    CapacityError,
    DeviceFault,
    GraphCaptureError,
    SchedulingError,
    StragglerAlarm,
    StragglerTimeoutError,
    TransientTransferError,
    UnrecoverableError,
)
from repro.hardware.topology import HOST
from repro.patterns.base import Aggregation, InputContainer, OutputContainer
from repro.patterns.output_patterns import combine
from repro.sim.commands import Event, EventRecord, EventWait
from repro.sim.memory import DeviceBuffer
from repro.sim.trace import TraceRecord
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import SimNode


class _RescheduleError(Exception):
    """Internal control flow: a settle inside an in-progress replay
    recovered from a fault (retiring a device), so the replay's plan is
    stale — abort it and reschedule against the new alive set. Never
    escapes the scheduler."""


@dataclass
class _TransferContext:
    """Provenance attached to a segment-copy Memcpy (``cmd.origin``) so a
    transient fault on it can be retried from an alternate replica.
    Aggregation/reduce-scatter transfers carry no context and are retried
    over the same route.

    ``payload_factory(op) -> payload`` overrides the default
    analyzer-buffer payload when the copy's destination is not the
    analyzer's allocation (chunk staging buffers, DESIGN.md §10): a retry
    or hedge from an alternate replica (``_reroute``) must rebuild the
    payload against the same staging destination."""

    datum: Optional[Datum]
    op: Optional[CopyOp]
    done_event: Optional[Event]
    attempt: int = 0
    payload_factory: Any = None
    #: Set once the straggler watchdog alarmed on this copy; a hedged or
    #: declined transfer runs to completion without re-alarming.
    alarmed: bool = False


@dataclass
class _KernelOrigin:
    """Provenance attached to a per-segment KernelLaunch (``cmd.origin``)
    when straggler mitigation is on, so the watchdog's
    :class:`~repro.errors.StragglerAlarm` carries enough context to
    speculatively re-execute the segment on an idle device (DESIGN.md
    §11). ``dev_events`` is the replay's shared device -> completion-event
    map (fully populated before any wait can alarm)."""

    task: Task
    plan: TaskPlan
    device: int
    dev_events: dict
    num_active: int
    alarmed: bool = False


@dataclass
class _GatherRecord:
    """A gather the application requested, tracked until its transfers
    complete so an aborting fault cannot silently leave the host buffer
    stale — recovery re-issues any gather with unrecorded events."""

    datum: Datum
    region: Optional[Rect]  # None = whole datum (may aggregate)
    events: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(e is None or e.recorded for e in self.events)


def _binding(task: Task, plan: TaskPlan) -> tuple:
    """One binding of datums to a plan: ``(signature, datum ids)``. A
    plan is geometry only, so per-datum state is keyed by its binding."""
    return (plan.signature, tuple([id(c.datum) for c in task.containers]))


def _by_container(task: Task, per_input, per_output) -> list:
    """Interleave items aligned with ``task.inputs`` and ``task.outputs``
    into ``task.containers`` order."""
    ins, outs = iter(per_input), iter(per_output)
    return [
        next(ins) if isinstance(c, InputContainer) else next(outs)
        for c in task.containers
    ]


class Scheduler:
    """Host-level entry point (paper Table 2).

    Methods use snake_case; CamelCase aliases matching the paper's API
    (``AnalyzeCall``, ``Invoke``, ``Gather``, ...) are provided at the
    bottom of the class.
    """

    def __init__(
        self,
        node: "SimNode",
        auto_analyze: bool = False,
        plan_cache: bool = True,
        sanitize: bool = False,
        devices: "tuple[int, ...] | None" = None,
    ):
        """Args:
            node: The simulated multi-GPU node to drive.
            auto_analyze: §8 future-work automation — when True, ``invoke``
                runs the memory analysis implicitly for task signatures that
                were never ``AnalyzeCall``-ed. Convenient, but allocations
                then grow on demand instead of being sized up front, so
                double-buffered access patterns may allocate twice (compare
                Fig. 3); the paper's explicit-AnalyzeCall discipline remains
                the default.
            plan_cache: Cache invocation plans per task signature so
                repeated ``Invoke``s of the same task replay the cached
                partition/segmentation instead of recomputing it (§4.3
                amortization). Affects host wall-clock only — the emitted
                command sequence, numerical results and simulated times are
                identical with the cache on or off.
            sanitize: Run every functional kernel under the pattern-
                conformance sanitizer (DESIGN.md §9): device-level views
                record their actual accesses, which are checked against
                the declared patterns after each per-device kernel and
                across devices once all of a task's kernels have run. A
                violation raises the typed
                :class:`~repro.sanitize.errors.SanitizerError` out of
                ``wait``/``wait_all``. Requires a functional node.
            devices: Restrict scheduling to a subset of the node's devices
                (DESIGN.md §13: a job-server lease hands a tenant ``n`` of
                the node's GPUs). Default: all of them. Work is segmented,
                placed and transferred only among these devices; the rest
                of the node is untouched.
        """
        self.node = node
        self.auto_analyze = auto_analyze
        self.sanitize = sanitize
        if sanitize and not node.functional:
            raise SchedulingError(
                "sanitize mode records kernel accesses and therefore "
                "requires a functional-mode node"
            )
        # One knob controls all cross-invocation amortization. With the
        # plan cache on, plans, analyzed requirement rects and monitor
        # transitions come from the node's shared geometry tables, so they
        # outlive this scheduler (the job server's next lease replays
        # them). With it off, nothing is memoized or shared: every
        # invocation recomputes from scratch (the honest uncached baseline
        # for `repro.bench --overhead`, and the differential oracle).
        tables = NodeTables.of(node) if plan_cache else NodeTables()
        self.analyzer = MemoryAnalyzer(
            node, tables.rects if plan_cache else None
        )
        self.monitor = LocationMonitor(tables.geom_ids, tables.transitions)
        self.monitor.amortize = plan_cache
        #: Host-gather copy decisions (``_copy_ops``), node-shared.
        self._gathers = tables.gathers if plan_cache else None
        self.plans = PlanCache(enabled=plan_cache, plans=tables.plans)
        #: Bindings (``_binding``) whose rects were checked against this
        #: scheduler's analyzed boxes (``check_plan``).
        self._bound: set[tuple] = set()
        self._peer_cache: dict[int, list[int]] = {}
        g = node.num_gpus
        self._compute = [
            node.new_stream(d, "compute", f"gpu{d}.compute") for d in range(g)
        ]
        self._copy_in = [
            node.new_stream(d, "copy-in", f"gpu{d}.copy-in") for d in range(g)
        ]
        self._copy_out = [
            node.new_stream(d, "copy-out", f"gpu{d}.copy-out") for d in range(g)
        ]
        self._host_stream = node.new_stream(HOST, "host", "host.aggregate")
        #: Devices currently taking work; starts as the ``devices``
        #: restriction (default: all) and shrinks as faults retire devices.
        if devices is None:
            alive = tuple(range(g))
        else:
            alive = tuple(sorted(set(int(d) for d in devices)))
            if not alive:
                raise SchedulingError("devices must name at least one GPU")
            if alive[0] < 0 or alive[-1] >= g:
                raise SchedulingError(
                    f"devices {alive} out of range for a {g}-GPU node"
                )
        self._alive: tuple[int, ...] = alive
        #: Set by :meth:`release`: the scheduler gave its streams and
        #: buffers back to the node and must not be driven again.
        self._released = False
        #: Tasks registered via analyze_call — re-analyzed for the
        #: surviving device set when recovery re-segments work.
        self._analyzed: list[Task] = []
        #: Submission log (TaskHandles and _GatherRecords in order) driving
        #: ordered resubmission after a permanent failure; pruned of
        #: completed entries after each successful wait.
        self._log: list = []
        #: token -> (device, pool buffers) for in-flight out-of-core chunk
        #: replays (DESIGN.md §10). Pools normally free themselves via a
        #: deferred command at the end of the chunk sequence; device
        #: retirement and release clear streams, so _free_chunk_pools
        #: force-frees whatever is still registered here.
        self._live_chunk_pools: dict[int, tuple[int, list[DeviceBuffer]]] = {}
        #: Out-of-core chunk plans per (binding, device) (DESIGN.md §10). They depend on memory pressure, not geometry,
        #: so they stay with this scheduler and binding instead of the
        #: node's shared plan. Pressure state is deliberately NOT part of
        #: the key: every replay attempts the in-core path first and falls
        #: into chunking only when the allocation actually fails, so a
        #: cached plan self-heals when memory frees up; a cached chunk
        #: plan is revalidated against the device's *current*
        #: ``free_bytes`` before reuse and rebuilt when stale.
        self._chunk_plans: dict[tuple, ChunkPlan] = {}
        self._pool_tokens = 0
        # Straggler mitigation (DESIGN.md §11) — strictly opt-in via
        # FaultPlan.mitigate_stragglers alone (off on the node's empty
        # plan); with it off, no observer is installed, no origin
        # provenance is attached, and the scheduler's command stream is
        # byte-identical to a build without this feature.
        self._mitigation = node.faults.mitigate_stragglers
        #: device -> EWMA of observed/calibrated kernel duration ratio.
        self._ewma_c: dict[int, float] = {}
        #: (src, dst) -> EWMA of observed/calibrated transfer ratio
        #: (diagnostics; deliberately not folded into segment weights, as
        #: a degraded shared link would taint healthy endpoints).
        self._ewma_t: dict[tuple[int, int], float] = {}
        #: Current quantized throughput weights (None = even split).
        self._weights: tuple[int, ...] | None = None
        #: device -> dedicated speculation stream (created lazily).
        self._spec_streams: dict[int, Any] = {}
        if self._mitigation:
            node.engine.observer = self._observe
        # Iteration-graph capture & replay (DESIGN.md §12). The generation
        # counter is bumped by every steady-state-breaking transition
        # (weight rebalance, device retirement, replica eviction, chunk
        # planning); captured graphs are valid for one generation only.
        self._graph_generation = 0
        self._capture: IterationGraph | None = None
        self._capture_rec: GraphRecorder | None = None
        self._capture_entry: dict[int, tuple] | None = None
        self._capture_gen0 = 0

    @property
    def alive_devices(self) -> tuple[int, ...]:
        """Devices currently scheduled onto (shrinks under faults)."""
        return self._alive

    @property
    def handles(self) -> list[TaskHandle]:
        """Handles of invocations not yet seen complete, read from the
        submission log (a fresh list; ``wait_all`` prunes the log)."""
        return [e for e in self._log if isinstance(e, TaskHandle)]

    @property
    def released(self) -> bool:
        """Whether :meth:`release` tore this scheduler down."""
        return self._released

    def _check_live(self) -> None:
        if self._released:
            raise SchedulingError(
                "scheduler was released (its lease ended); build a fresh "
                "Scheduler and re-bind the workload to resume"
            )

    def release(self) -> None:
        """Tear the scheduler down and return the node to an unleased,
        empty state (DESIGN.md §13).

        The job server calls this at the end of every lease — cooperative
        preemption, completion, or fault teardown. It must leave *zero*
        residue on the shared node: all device buffers freed (including
        in-flight chunk staging pools), this scheduler's streams removed
        from the node's dispatch set, the straggler observer unhooked, and
        any captured iteration graphs spoiled (their generation check
        fails and :meth:`IterationGraph.launch` refuses a released
        scheduler — the workload re-captures on its next lease). Safe to
        call twice; every driving entry point raises
        :class:`~repro.errors.SchedulingError` afterwards.
        """
        if self._released:
            return
        self._released = True
        # Spoil captured graphs before anything else: a launch racing the
        # teardown must take neither the fast path nor the eager fallback.
        self._graph_generation += 1
        if self._capture is not None:
            self._abort_batch()
        node = self.node
        # == not `is`: bound-method objects are created per access, so
        # identity would never match and a stale observer would outlive
        # the lease, crashing the next tenant's dispatches.
        if node.engine.observer == self._observe:
            node.engine.observer = None
        # A preempted or faulted lease may have destroyed the pools'
        # deferred free.
        self._free_chunk_pools()
        self.analyzer.release_all()
        own = set()
        for group in (self._compute, self._copy_in, self._copy_out):
            own.update(id(s) for s in group)
        own.add(id(self._host_stream))
        own.update(id(s) for s in self._spec_streams.values())
        for s in node.streams:
            if id(s) in own:
                s.commands.clear()
        node.streams = [s for s in node.streams if id(s) not in own]

    # -- public API (paper Table 2) -------------------------------------------
    def analyze_call(
        self,
        kernel: Kernel,
        *containers,
        grid: Grid | None = None,
        constants: Mapping[str, Any] | None = None,
    ) -> Task:
        """Forward-declare a task so the memory analyzer can size
        per-device allocations (§4.2). Accepts the same parameters as
        :meth:`invoke`."""
        self._check_live()
        self._no_capture("analyze_call")
        task = Task(kernel, containers, grid, constants)
        self._refresh_weights()
        self.analyzer.analyze(task, self._alive, weights=self._weights)
        self._analyzed.append(task)
        self.node.host_advance(self.node.interconnect.scheduler_container_overhead)
        return task

    def invoke(
        self,
        kernel: Kernel,
        *containers,
        grid: Grid | None = None,
        constants: Mapping[str, Any] | None = None,
    ) -> TaskHandle:
        """Schedule and queue a task (Algorithm 1). Returns a handle."""
        if self._capture is not None:
            self._capture.calls.append(
                (False, kernel, containers, grid, constants)
            )
        task = Task(kernel, containers, grid, constants)
        return self._schedule(task)

    def invoke_unmodified(
        self,
        routine: Kernel,
        *containers,
        grid: Grid | None = None,
        constants: Mapping[str, Any] | None = None,
    ) -> TaskHandle:
        """Schedule an unmodified GPU routine (§4.6): same pipeline as
        :meth:`invoke`, but the wrapper receives raw per-device segment
        arrays (a :class:`~repro.core.unmodified.RoutineContext`)."""
        if not routine.raw:
            raise SchedulingError(
                f"{routine.name!r} is not an unmodified routine; build it "
                "with make_routine()"
            )
        if self._capture is not None:
            self._capture.calls.append(
                (True, routine, containers, grid, constants)
            )
        task = Task(routine, containers, grid, constants)
        return self._schedule(task)

    def gather_async(self, datum: Datum) -> None:
        """Queue the transfers (and aggregation) bringing ``datum`` back
        into its bound host buffer."""
        self._no_capture("gather")
        events = self._gather_events(datum, None)
        self._log.append(_GatherRecord(datum, None, events))

    def gather(self, datum: Datum) -> float:
        """Gather ``datum`` to the host and wait (synchronous)."""
        self.gather_async(datum)
        return self.wait_all()

    def gather_region(self, datum: Datum, region: Rect) -> None:
        """Queue the transfers bringing only ``region`` of ``datum`` up to
        date on the host (used e.g. for inter-node halo exchange in the
        cluster extension). Reductive datums must be gathered whole."""
        self._no_capture("gather_region")
        self._check_region(datum, region)
        events = self._gather_events(datum, region)
        self._log.append(_GatherRecord(datum, region, events))

    def _gather_events(
        self, datum: Datum, region: Optional[Rect]
    ) -> list[Event]:
        """Queue the copies of one gather; returns their completion events
        (the re-issuable core of gather_async/gather_region)."""
        self._check_live()
        if self.monitor.needs_aggregation(datum):
            if region is not None:
                raise SchedulingError(
                    f"datum {datum.name!r} has pending partial results; "
                    "gather it whole"
                )
            ev = self._aggregate(datum)
            return [ev] if ev is not None else []
        target = region if region is not None else datum.extent
        # Gathers pass no peer preference, so their decisions depend on
        # geometry alone and are memoized per target rect in the node's
        # shared table.
        ops = self._copy_ops(datum, self._gathers, target, (target,), HOST)
        return [self._enqueue_copy(datum, op) for op in ops]

    def _copy_ops(
        self,
        datum: Datum,
        memo: dict | None,
        key: Hashable,
        required: Iterable[Rect],
        target: int,
        prefer: Iterable[int] = (),
    ) -> list[CopyOp]:
        """Algorithm 2 for ``required`` at ``target``, through a memo of
        copy decisions (the residency-dependent part of scheduling).

        Iterative workloads revisit the same residency states, so the
        decisions are kept in ``memo`` per ``(state, key)``, where ``key``
        names everything else they depend on, and rebuilt against the
        current producer events (``replay_copies``). An unseen state runs
        ``compute_copies``; an uncacheable one (fingerprint ``None``) or
        ``memo=None`` (cache off) never touches the memo, which stops
        growing at :data:`COPY_MEMO_LIMIT` entries."""
        monitor = self.monitor
        state = None if memo is None else monitor.fingerprint(datum)
        if state is not None:
            decisions = memo.get((state, key))
            if decisions is not None:
                return monitor.replay_copies(datum, target, decisions)
        ops = monitor.compute_copies(datum, required, target, prefer=prefer)
        if state is not None and len(memo) < COPY_MEMO_LIMIT:
            memo[(state, key)] = tuple(
                (op.src, op.src_index, op.actual) for op in ops
            )
        return ops

    def mark_host_region_dirty(self, datum: Datum, region: Rect) -> None:
        """The application overwrote ``region`` of the bound host buffer
        (e.g. received remote halo rows): device-resident copies of that
        region are stale; the rest stays valid."""
        self._no_capture("mark_host_region_dirty")
        self._check_region(datum, region)
        self.monitor.mark_written(datum, HOST, region, None)

    def _check_region(self, datum: Datum, region: Rect) -> None:
        """Reject regions that don't fit the datum: silently accepting an
        out-of-bounds rect would corrupt the location monitor (it tracks
        regions that cannot exist) and index past host buffers."""
        full = datum.extent
        if region.ndim != full.ndim:
            raise SchedulingError(
                f"region {region} has {region.ndim} dims but datum "
                f"{datum.name!r} has shape {datum.shape}"
            )
        if not (region.empty or full.contains(region)):
            raise SchedulingError(
                f"region {region} is out of bounds for datum "
                f"{datum.name!r} with shape {datum.shape}"
            )

    def wait_all(self) -> float:
        """Run the simulation until every queued command has executed;
        returns the simulated time. Injected faults are recovered from
        here (see module docstring)."""
        self._check_live()
        self._no_capture("wait_all")
        t = self._drive(self.node.run)
        self._prune_log()
        return t

    def wait(self, handle: TaskHandle) -> float:
        """Wait for a specific task; returns the simulated time at which
        its last per-device kernel completed.

        Runs the simulation only until every completion event recorded for
        ``handle`` has fired (cudaEventSynchronize semantics, not a full
        device drain): commands of later, independent tasks may remain
        queued afterwards and are executed by a subsequent ``wait``/
        ``wait_all``. The host clock advances to the task's completion
        time, as the calling host thread blocks until then.
        """
        self._check_live()
        self._no_capture("wait")
        if handle is None or not isinstance(handle, TaskHandle) \
                or handle.task is None:
            raise SchedulingError("invalid task handle")

        def lap() -> float:
            if not handle.events:  # idle-task guard; active is never empty
                return self.node.time
            # Recovery may have replaced the handle's events, so they are
            # re-read on every lap.
            return self.node.run_until(handle.events)

        return self._drive(lap)

    def mark_host_dirty(self, datum: Datum) -> None:
        """Tell the framework the bound host buffer was modified by the
        application, invalidating device-resident instances."""
        self._no_capture("mark_host_dirty")
        self.monitor.mark_host_dirty(datum, self.node.host_time)

    # -- iteration graphs (DESIGN.md §12) ---------------------------------------
    def _no_capture(self, what: str) -> None:
        if self._capture is not None:
            raise GraphCaptureError(
                f"{what} is not allowed while an iteration-graph capture "
                "is recording: a captured period must be pure steady-state "
                "submission (invoke/invoke_unmodified only)"
            )

    def begin_batch(self) -> IterationGraph:
        """Start capturing one steady-state period into an
        :class:`~repro.core.graph.IterationGraph`.

        Drains all outstanding work first (the capture must start from a
        quiescent node), then records every command the following
        ``invoke``/``invoke_unmodified`` calls produce until
        :meth:`end_batch`. Requires the plan cache (the capture records
        *resolved* plans) and is unavailable in sanitize mode (the
        sanitizer must observe every eager dispatch).
        """
        self._check_live()
        if self._capture is not None:
            raise GraphCaptureError("an iteration-graph capture is already "
                                    "recording (captures do not nest)")
        if not self.plans.enabled:
            raise GraphCaptureError(
                "iteration-graph capture requires the plan cache "
                "(Scheduler(plan_cache=True))"
            )
        if self.sanitize:
            raise GraphCaptureError(
                "iteration-graph capture is unavailable in sanitize mode"
            )
        self.wait_all()
        graph = IterationGraph(self)
        rec = GraphRecorder(self.node.host_time)
        self._capture_entry = snapshot_monitor(self.monitor)
        self._capture_gen0 = self._graph_generation
        self.monitor.war_log = set()
        for d in self.node.devices:
            mem = d.memory
            cls = type(mem)

            def _touch(buf, _mem=mem, _cls=cls, _rec=rec):
                _rec.touches.append((_mem, buf))
                _cls.touch(_mem, buf)

            mem.touch = _touch
        self.node.graph_recorder = rec
        self._capture = graph
        self._capture_rec = rec
        return graph

    def _stop_capture(self) -> None:
        """End the recording: drop the capture state and its hooks."""
        self._capture = None
        self._capture_rec = None
        self._capture_entry = None
        self.node.graph_recorder = None
        self.monitor.war_log = None
        for d in self.node.devices:
            d.memory.__dict__.pop("touch", None)

    def end_batch(self) -> IterationGraph:
        """Stop recording, drain the captured period and compile it;
        returns the (possibly fallback-only) :class:`IterationGraph`."""
        if self._capture is None:
            raise GraphCaptureError("no iteration-graph capture to end")
        graph, rec = self._capture, self._capture_rec
        entry, gen0 = self._capture_entry, self._capture_gen0
        war_log = self.monitor.war_log or set()
        self._stop_capture()
        h_submit_end = self.node.host_time
        self.wait_all()
        graph._finalize(rec, entry, war_log, h_submit_end, gen0)
        return graph

    def _abort_batch(self) -> None:
        """Discard a recording capture (context-manager error path)."""
        if self._capture is None:
            return
        graph = self._capture
        self._stop_capture()
        graph._fail("capture aborted")

    def capture(self) -> "_CaptureContext":
        """``with sched.capture() as g:`` — batch-submission sugar around
        :meth:`begin_batch`/:meth:`end_batch`; ``g`` is the
        :class:`IterationGraph`, finalized when the block exits."""
        return _CaptureContext(self)

    # -- Algorithm 1 ------------------------------------------------------------
    def _schedule(self, task: Task) -> TaskHandle:
        """Plan lookup/build, then replay (the cached fast path and the
        uncached baseline share the replay, so both emit identical command
        sequences). An *injected* allocation failure retires the device —
        a device that cannot allocate cannot take new work — and the task
        is rescheduled over the survivors. Genuine capacity overflows are
        absorbed by the replay's escalation ladder (eviction, then
        out-of-core chunking, DESIGN.md §10); only a
        :class:`~repro.errors.CapacityError` — an irreducible footprint —
        propagates, since shrinking the device set only enlarges
        per-device shares and could never help."""
        self._check_live()
        while True:
            try:
                plan = self._lookup_or_build(task)
                return self._replay(task, plan)
            except _RescheduleError:
                continue  # settle-time recovery changed the alive set
            except AllocationError as e:
                if not e.injected:
                    raise
                self._recover(e.device, self.node.time)

    def _lookup_or_build(self, task: Task) -> TaskPlan:
        self._refresh_weights()
        plan = self.plans.lookup(task, self._alive, weights=self._weights)
        if plan is None:
            # Slow path: runs once per task signature on the node (or
            # every time with the cache disabled).
            plan = build_plan(
                task, self._alive, peers_of=self._peers,
                weights=self._weights,
            )
            if not plan.active:
                raise SchedulingError(f"task {task.name} has an empty grid")
            self.plans.store(plan)
        # A plan is geometry only, so each new binding of datums to it is
        # checked against their analyzed boxes (after the implicit
        # analysis, if on) — a cached plan once per scheduler.
        binding = _binding(task, plan)
        if binding not in self._bound:
            if self.auto_analyze:
                self.analyzer.ensure(task, self._alive, weights=self._weights)
            check_plan(task, plan, self.analyzer)
            if plan.memoize:
                self._bound.add(binding)
        return plan

    def _replay(
        self, task: Task, plan: TaskPlan, handle: TaskHandle | None = None
    ) -> TaskHandle:
        node = self.node
        ic = node.interconnect
        monitor = self.monitor
        analyzer = self.analyzer
        active = plan.active
        inputs = task.inputs
        outputs = task.outputs
        dplans = plan.device_plans

        # Host-side scheduling overhead (task construction, segmentation,
        # location-monitor bookkeeping). Charged identically on build and
        # replay: the plan cache models no simulated-time savings, only
        # real host wall-clock savings.
        node.host_advance(
            ic.scheduler_task_overhead
            + ic.scheduler_container_overhead * len(task.containers) * len(active)
        )

        # Pending-aggregation inputs are resolved first: segmented disjoint
        # consumers get a device-level reduce-scatter (Algorithm 1 line 17:
        # "copy segment from one device to another, aggregating as
        # necessary"); anything else falls back to host-level aggregation.
        for i, c in enumerate(inputs):
            if monitor.needs_aggregation(c.datum):
                self._resolve_aggregation(c.datum, plan.consumer_rects[i])

        # DESIGN.md §10 pre-flight: make every active device's working set
        # resident, escalating evict -> out-of-core chunking when device
        # memory is oversubscribed. With ample capacity this is exactly the
        # allocation pass the in-core path always ran (buffers allocate on
        # first use and are merely re-touched afterwards).
        chunked: dict[int, ChunkPlan] = {}
        for d in active:
            cp = self._prepare_device(task, plan, d)
            if cp is not None:
                chunked[d] = cp
        in_core = [d for d in active if d not in chunked]

        # Lines 3-12: allocation and copy planning per device (the
        # segmentation rects come precomputed from the plan; only the
        # location-monitor copy computation depends on current residency).
        kernel_waits: dict[int, list[Event]] = {d: [] for d in active}
        # Copy decisions are memoized per (input, device) in the cached
        # plan; one-shot plans (cache off) skip the memo entirely.
        copy_memo = plan.copy_memo if plan.memoize else None
        for d in in_core:
            dp = dplans[d]
            waits = kernel_waits[d]
            for i, (c, req) in enumerate(zip(inputs, dp.input_reqs)):
                analyzer.buffer(c.datum, d)
                if monitor.needs_aggregation(c.datum):
                    self._aggregate(c.datum)
                ops = self._copy_ops(
                    c.datum, copy_memo, (i, d),
                    (a for _, a in req.pieces), d, dp.peers,
                )
                for op in ops:  # line 13: distribute to invoker streams
                    waits.append(self._enqueue_copy(c.datum, op))
            for c in outputs:
                analyzer.buffer(c.datum, d)
                # WAR: wait for in-flight readers of the previous contents.
                waits.extend(monitor.take_war_events(c.datum, d))
                if c.duplicated:
                    self._enqueue_clear(task, c, d, waits)

        # Lines 14-21: queue kernels, record completion events. Chunked
        # devices replay their whole alloc->copy-in->kernel->copy-out
        # sequence here; their completion event is the end of the chunk
        # pipeline (last copy-out + pool release).
        durations = self._durations(task, plan)
        num_active = len(active)
        # One race pool per replay: payloads deposit their recorders here
        # as they execute; the last kernel of the task runs the
        # cross-device checks over the full pool.
        race_pool: dict[int, Any] | None = {} if self.sanitize else None
        new_events: list[Event] = []
        dev_events: dict[int, Event] = {}
        for d in active:
            if d in chunked:
                done_ev, last_kev = self._replay_chunked(
                    task, plan, chunked[d], num_active
                )
                new_events.append(done_ev)
                # The last chunk kernel is the producer of any duplicated
                # partial and the WAR anchor for this device.
                dev_events[d] = last_kev
                continue
            stream = self._compute[d]
            for ev in kernel_waits[d]:
                node.wait_event(stream, ev)
            payload = self._kernel_payload(
                task, d, dplans[d], num_active, race_pool=race_pool
            )
            kcmd = node.launch_kernel(
                stream, durations[d], payload, label=f"{task.name}@gpu{d}"
            )
            ev = node.record_event(stream, f"{task.name}@gpu{d}")
            if self._mitigation:
                # dev_events is shared by reference; it is fully populated
                # before any wait can surface an alarm for this replay.
                kcmd.origin = _KernelOrigin(
                    task, plan, d, dev_events, num_active
                )
            new_events.append(ev)
            dev_events[d] = ev

        # Monitor updates: written segments / pending partials / reads.
        # Chunked devices already did their own bookkeeping per chunk
        # (reads at the copy sources, writes landed on the host) — except
        # for duplicated partials, which accumulate in the device-resident
        # buffer like the in-core path.
        for d in in_core:
            for c in inputs:
                monitor.mark_read(
                    c.datum, d, dev_events[d], node.host_time
                )
        for i, c in enumerate(outputs):
            if c.duplicated:
                monitor.mark_partial(c.datum, c.aggregation, dev_events)
            else:
                for d in in_core:
                    monitor.mark_written(
                        c.datum, d, dplans[d].output_rects[i], dev_events[d]
                    )

        # The handle is created/updated only once the replay has fully
        # committed: if a settle-time recovery aborts the replay midway,
        # a first-time task is simply rescheduled (it was never logged)
        # and a resubmitted one keeps its old, unrecorded events — either
        # way nothing is silently marked complete.
        if handle is None:
            handle = TaskHandle(task, submitted_at=node.host_time)
            self._log.append(handle)
            handle.events.extend(new_events)
        else:
            handle.events[:] = new_events
        return handle

    def _durations(self, task: Task, plan: TaskPlan) -> dict[int, float]:
        """Per-device kernel durations, cached per frozen constants.

        Cost models are functions of the work rect, container shapes, task
        constants and the device calibration — all captured by the plan
        signature plus the constants key — so the result is reused across
        replays; unhashable constants force recomputation.
        """
        key = freeze_constants(task.constants)
        if key is not None:
            cached = plan.durations.get(key)
            if cached is not None:
                return cached
        durations = {
            d: self._duration(task, d, plan.device_plans[d].work_rect)
            for d in plan.active
        }
        if key is not None:
            plan.durations[key] = durations
        return durations

    def _duration(self, task: Task, device: int, work_rect: Rect) -> float:
        """The kernel cost model over one work rect on one device (a whole
        segment, a speculated segment on an alternate, or one chunk)."""
        dev = self.node.devices[device]
        return task.kernel.duration(CostContext(
            work_rect=work_rect,
            grid=task.grid,
            containers=task.containers,
            constants=task.constants,
            spec=dev.spec,
            calib=dev.calib,
        ))

    # -- straggler feedback (DESIGN.md §11) -----------------------------------------
    def _observe(
        self, kind: str, where, nominal: float, actual: float
    ) -> None:
        """Engine dispatch hook: fold one observed/calibrated duration
        ratio into the per-device (kernel) or per-route (transfer) EWMA.
        Runs in simulated-dispatch order, so the estimate stream — and
        everything derived from it — is deterministic under a fixed seed.
        """
        if nominal <= 0.0:
            return
        ratio = actual / nominal
        a = self.node.faults.ewma_alpha
        table = self._ewma_c if kind == "kernel" else self._ewma_t
        prev = table.get(where)
        table[where] = ratio if prev is None else prev + a * (ratio - prev)

    def _current_weights(self) -> tuple[int, ...] | None:
        """Quantized per-device throughput weights from the compute EWMA.

        Returns None — the even-split default, byte-identical to a run
        without mitigation — until observed throughput diverges from the
        calibration by more than ``rebalance_threshold``. Weights are
        relative speeds (1/slowdown) quantized to integers in 1..16 so the
        plan-cache key stays stable across jittery estimates and re-hits
        the even-split plans after a transient straggler heals.
        """
        if not self._mitigation:
            return None
        fp = self.node.faults
        slowdowns = [max(self._ewma_c.get(d, 1.0), 1e-9) for d in self._alive]
        if max(slowdowns) < 1.0 + fp.rebalance_threshold:
            return None
        speeds = [1.0 / s for s in slowdowns]
        m = max(speeds)
        q = tuple(max(1, round(16.0 * sp / m)) for sp in speeds)
        if len(set(q)) == 1:
            return None
        return q

    def _refresh_weights(self) -> None:
        """Re-derive segment weights from the EWMAs; on change, re-analyze
        every declared task under the new split so allocations cover the
        shifted segments before the next plan build (growth preserves
        contents, exactly as after fault recovery)."""
        if not self._mitigation:
            return
        w = self._current_weights()
        if w == self._weights:
            return
        self._graph_generation += 1
        self._weights = w
        for t in self._analyzed:
            self.analyzer.ensure(
                t, self._alive, oom_handler=self._recovery_oom, weights=w
            )

    # -- memory pressure (DESIGN.md §10) --------------------------------------------
    def _settle(self) -> None:
        """Drain every queued command before mutating residency.

        In-flight copy payloads resolve the analyzer's buffers at dispatch
        time; evicting under them would read freed carcasses. Faults
        surfacing during the drain are handled exactly as in ``wait_all``.
        """
        self._drive(self.node.run)

    def _alloc_task_buffers(self, task: Task, device: int) -> bool:
        """Allocate (or re-touch) every task buffer on a device, in the
        same input-then-output order the in-core planning loop always
        used, so FaultPlan nth-allocation numbering is unchanged on the
        ample-capacity path. False on a genuine out-of-memory; an
        injected allocation failure propagates."""
        try:
            for c in task.inputs:
                self.analyzer.buffer(c.datum, device)
            for c in task.outputs:
                self.analyzer.buffer(c.datum, device)
        except AllocationError as e:
            if e.injected:
                raise
            return False
        return True

    def _prepare_device(
        self, task: Task, plan: TaskPlan, device: int
    ) -> Optional[ChunkPlan]:
        """Make one device's working set resident, escalating through the
        degradation ladder (DESIGN.md §10):

        0. in-core: allocate the analyzed boxes (ample-capacity fast path);
        1. evict cold replicas LRU-first — first only safely-evictable ones
           (every byte also up to date on the host or a peer), then sole
           copies after salvaging them to the host;
        2. out-of-core: evict the task's own staged buffers too and replay
           this device's share in chunks through fixed staging pools;
        3. an irreducible single-chunk footprint raises
           :class:`~repro.errors.CapacityError` (from ``build_chunk_plan``).

        Returns the chunk plan for stage 2, or None for the in-core path.
        """
        analyzer = self.analyzer
        monitor = self.monitor
        node = self.node
        memory = node.devices[device].memory
        if self._alloc_task_buffers(task, device):
            return None
        # Queued copies may still reference buffers about to be evicted;
        # drain them first. The drain can itself hit a fault and retire a
        # device, invalidating this replay's plan — abort and reschedule.
        self._settle()
        if any(dev not in self._alive for dev in plan.active):
            raise _RescheduleError
        task_dids = {id(c.datum) for c in task.containers}
        for salvage in (False, True):
            while True:
                victim = next((
                    datum for datum in self._cold_replicas(device, task_dids)
                    if salvage or monitor.evictable(datum, device)
                ), None)
                if victim is None:
                    break
                self._evict_datum(victim, device, salvage=salvage)
                if self._alloc_task_buffers(task, device):
                    return None
        # Stage 2: the task's own staged inputs/outputs are streamed per
        # chunk instead of held whole; only duplicated outputs stay
        # resident (chunk kernels accumulate into them in place), and
        # unaggregated partials are never evicted.
        for c in task.containers:
            dup = isinstance(c, OutputContainer) and c.duplicated
            if (
                not dup
                and analyzer.has_buffer(c.datum, device)
                and not monitor.has_partial_on(c.datum, device)
            ):
                self._evict_datum(c.datum, device, salvage=True)
        for c in task.outputs:
            if not c.duplicated:
                continue
            try:
                analyzer.buffer(c.datum, device)
            except AllocationError as e:
                if e.injected:
                    raise
                box = analyzer.box(c.datum, device)
                required = box.size * c.datum.dtype.itemsize
                raise CapacityError(
                    f"device {device}: duplicated output {c.datum.name!r} "
                    f"needs {required} B resident across all chunks, but "
                    f"only {memory.free_bytes} B of {memory.capacity} B "
                    "can be freed",
                    datum=c.datum.name,
                    required=required,
                    capacity=memory.capacity,
                    device=device,
                ) from e
        budget = memory.free_bytes
        key = (_binding(task, plan), device)
        cp = self._chunk_plans.get(key)
        if cp is None or cp.footprint > budget:
            cp = build_chunk_plan(
                task, device, plan.device_plans[device].work_rect,
                budget, memory.capacity,
            )
            if plan.memoize:
                self._chunk_plans[key] = cp
        node.trace.add(TraceRecord(
            kind="event",
            label=(
                f"chunk-plan:{task.name}@gpu{device}:"
                f"{cp.num_chunks}x{cp.slots}"
            ),
            device=device, start=node.time, end=node.time,
        ))
        self._graph_generation += 1
        return cp

    def _evict_datum(self, datum: Datum, device: int, salvage: bool) -> None:
        """Evict one datum's replica from a device, optionally salvaging
        sole pieces to the host first, and leave an ``evict:`` event in the
        trace."""
        node = self.node
        self._graph_generation += 1
        if salvage:
            self._salvage(datum, device)
        freed = self.analyzer.evict(datum, device)
        self.monitor.drop_location(datum, device)
        node.trace.add(TraceRecord(
            kind="event",
            label=f"evict:{datum.name}@gpu{device}",
            device=device, start=node.time, end=node.time, nbytes=freed,
        ))

    def _salvage(self, datum: Datum, device: int) -> None:
        """Copy sole up-to-date pieces (no replica anywhere else) to the
        host before eviction. Algorithm 2's correctness hinges on never
        losing a last-output instance; the eviction ladder upholds the same
        invariant by gathering before freeing. The functional payload
        snapshots the data eagerly — the buffer is freed before the queued
        copy executes in simulated time."""
        node = self.node
        monitor = self.monitor
        pieces = monitor.sole_pieces(datum, device)
        if not pieces:
            return
        stream = self._copy_out[device]
        for wev in monitor.take_war_events(datum, HOST):
            node.wait_event(stream, wev)
        buf = self.analyzer.buffer(datum, device)
        for piece, pev in pieces:
            if piece.empty:
                continue
            payload = None
            if node.functional:
                virt = locate_virtual(buf, piece, datum.shape)
                arr = buf.view(virt).copy()

                def payload(piece=piece, arr=arr):
                    datum.host[piece.slices()] = arr
            if pev is not None and not pev.recorded:
                node.wait_event(stream, pev)
            node.memcpy(
                stream,
                src=device,
                dst=HOST,
                nbytes=piece.size * datum.dtype.itemsize,
                payload=payload,
                label=f"salvage:{datum.name}:{device}->host",
            )
            ev = node.record_event(stream, f"salvage:{datum.name}:{device}")
            monitor.mark_copied(datum, HOST, piece, ev)

    def _recovery_oom(
        self, datum: Datum, device: int, exc: AllocationError
    ) -> bool:
        """``oom_handler`` for post-retirement re-analysis: survivors'
        boxes grow to absorb the dead device's share and may no longer
        fit. Evict the coldest foreign replica and retry the growth
        (return True); with nothing foreign left, drop the growing
        datum's own buffer — salvaging sole pieces — so it re-stages
        lazily at next use (return False)."""
        candidates = self._cold_replicas(device, {id(datum)})
        for dat in candidates:
            if self.monitor.evictable(dat, device):
                self._evict_datum(dat, device, salvage=False)
                return True
        if candidates:
            self._evict_datum(candidates[0], device, salvage=True)
            return True
        if self.analyzer.has_buffer(datum, device):
            self._evict_datum(datum, device, salvage=True)
        return False

    def _cold_replicas(self, device: int, keep: set) -> list[Datum]:
        """Eviction candidates on a device, least recently used first (ties
        by name): every resident datum whose id is not in ``keep``, except
        unaggregated partials, which are never evicted."""
        monitor = self.monitor
        victims = [
            (datum, buf)
            for datum, buf in self.analyzer.buffers_on(device)
            if id(datum) not in keep
            and not monitor.has_partial_on(datum, device)
        ]
        victims.sort(key=lambda v: (v[1].last_use, v[0].name))
        return [datum for datum, _ in victims]

    def _pool_slice(
        self, device: int, pool: DeviceBuffer, rect: Rect, dtype
    ) -> DeviceBuffer:
        """A zero-cost staging alias over a pool slab: a DeviceBuffer whose
        rect is one chunk's box, backed by a view of the slab's array. Not
        an allocation — pools are the only chunk-path allocations, keeping
        FaultPlan nth-allocation numbering stable across chunk counts."""
        data = None
        if pool.data is not None:
            data = pool.data[tuple(slice(0, n) for n in rect.shape)]
        return DeviceBuffer(device, rect, dtype, data)

    def _replay_chunked(
        self, task: Task, plan: TaskPlan, cp: ChunkPlan, num_active: int
    ) -> tuple[Event, Event]:
        """Out-of-core replay of one device's share (DESIGN.md §10 stage
        2): alloc -> copy-in -> kernel -> copy-out/free per chunk. With two
        staging slots, chunk i's copy-out overlaps chunk i+1's copy-in and
        compute on the dual copy engines (the cuda-style double-buffered
        pipeline). Returns ``(done_event, last_kernel_event)`` — the former
        ends the whole pipeline (last copy-out + pool release), the latter
        is the producer event for duplicated partials.
        """
        node = self.node
        monitor = self.monitor
        analyzer = self.analyzer
        d = cp.device
        mem = node.devices[d].memory
        cout = self._copy_out[d]
        comp = self._compute[d]
        dp = plan.device_plans[d]
        inputs = task.inputs
        outputs = task.outputs

        # Register the pool set *before* carving it out: an injected
        # allocation fault mid-pool must not leak the slabs already
        # allocated when retirement clears the streams (and with them the
        # deferred free below).
        self._pool_tokens += 1
        token = self._pool_tokens
        pools: list[DeviceBuffer] = []
        self._live_chunk_pools[token] = (d, pools)

        eff_slots = min(cp.slots, cp.num_chunks)
        in_pools: list[list[DeviceBuffer]] = []
        for i, c in enumerate(inputs):
            if cp.persistent_in[i]:
                rect = cp.steps[0].input_reqs[i].virtual
                buf = mem.allocate(d, rect, c.datum.dtype)
                pools.append(buf)
                in_pools.append([buf])
            else:
                slabs = []
                for _ in range(eff_slots):
                    buf = mem.allocate(
                        d, Rect.from_shape(cp.in_pool_shapes[i]), c.datum.dtype
                    )
                    pools.append(buf)
                    slabs.append(buf)
                in_pools.append(slabs)
        out_pools: list[Optional[list[DeviceBuffer]]] = []
        for o, c in enumerate(outputs):
            shape = cp.out_pool_shapes[o]
            if shape is None:
                out_pools.append(None)  # duplicated: analyzer-resident
                continue
            slabs = []
            for _ in range(eff_slots):
                buf = mem.allocate(d, Rect.from_shape(shape), c.datum.dtype)
                pools.append(buf)
                slabs.append(buf)
            out_pools.append(slabs)

        # Chunk-invariant inputs are staged once, before the first chunk.
        persist_events: list[Event] = []
        for i, c in enumerate(inputs):
            if cp.persistent_in[i]:
                persist_events += self._chunk_in(
                    c.datum, d, cp.steps[0].input_reqs[i],
                    in_pools[i][0], dp.peers, [],
                )

        # Duplicated outputs accumulate in the resident buffer across all
        # chunks: zero them once up front (after in-flight readers drain).
        # Non-duplicated outputs land on the host; their WAR events gate
        # the first copy-out.
        host_war: list[Event] = []
        for o, c in enumerate(outputs):
            if out_pools[o] is None:
                war = list(monitor.take_war_events(c.datum, d))
                self._enqueue_clear(task, c, d, war)
            else:
                host_war += monitor.take_war_events(c.datum, HOST)
        for wev in host_war:
            node.wait_event(cout, wev)

        slot_kernel_ev: list[Optional[Event]] = [None] * eff_slots
        slot_out_ev: list[Optional[Event]] = [None] * eff_slots
        last_kev: Event = None  # type: ignore[assignment]
        for jn, step in enumerate(cp.steps):
            s = jn % eff_slots
            # In-slot WAR: the slab's previous kernel must finish before
            # its arrays are overwritten by this chunk's copy-ins.
            slot_waits = (
                [slot_kernel_ev[s]] if slot_kernel_ev[s] is not None else []
            )
            in_events: list[Event] = []
            tmp_ins: list[DeviceBuffer] = []
            for i, c in enumerate(inputs):
                if cp.persistent_in[i]:
                    tmp_ins.append(in_pools[i][0])
                    continue
                req = step.input_reqs[i]
                tmp = self._pool_slice(
                    d, in_pools[i][s], req.virtual, c.datum.dtype
                )
                in_events += self._chunk_in(
                    c.datum, d, req, tmp, dp.peers, slot_waits
                )
                tmp_ins.append(tmp)
            tmp_outs: list[DeviceBuffer] = []
            for o, c in enumerate(outputs):
                if out_pools[o] is None:
                    tmp_outs.append(analyzer.buffer(c.datum, d))
                else:
                    tmp_outs.append(self._pool_slice(
                        d, out_pools[o][s], step.output_rects[o],
                        c.datum.dtype,
                    ))
            waits = list(in_events)
            if jn == 0:
                # Later chunks inherit this ordering from the in-order
                # compute stream.
                waits += persist_events
            if slot_out_ev[s] is not None:
                # Out-slot WAR: the slab's previous copy-out must land
                # before this chunk's kernel overwrites it.
                waits.append(slot_out_ev[s])
            for wev in waits:
                node.wait_event(comp, wev)
            label = f"{task.name}@gpu{d}#chunk{jn + 1}/{cp.num_chunks}"
            node.launch_kernel(
                comp,
                self._duration(task, d, step.work_rect),
                self._kernel_payload(
                    task, d, step, num_active,
                    buffers=lambda ins=tmp_ins, outs=tmp_outs: _by_container(
                        task, ins, outs
                    ),
                ),
                label=label,
            )
            kev = node.record_event(comp, label)
            slot_kernel_ev[s] = kev
            last_kev = kev
            oev: Optional[Event] = None
            for o, c in enumerate(outputs):
                if out_pools[o] is None:
                    continue
                owned = step.output_rects[o]
                if owned.empty:
                    continue
                node.wait_event(cout, kev)
                payload = None
                if node.functional:
                    tmp = tmp_outs[o]

                    def payload(datum=c.datum, owned=owned, tmp=tmp):
                        datum.host[owned.slices()] = tmp.view(owned)
                node.memcpy(
                    cout,
                    src=d,
                    dst=HOST,
                    nbytes=owned.size * c.datum.dtype.itemsize,
                    payload=payload,
                    label=f"chunk-out:{c.datum.name}:{d}->host#{jn + 1}",
                )
                oev = node.record_event(
                    cout, f"chunk-out:{c.datum.name}:{d}#{jn + 1}"
                )
                monitor.mark_written(c.datum, HOST, owned, oev)
            if oev is not None:
                slot_out_ev[s] = oev

        # Release the pools once the last kernel and every copy-out have
        # retired (the copy-out stream is in order; the zero-byte transfer
        # is pure bookkeeping). Device retirement clears streams, so
        # _free_chunk_pools force-frees whatever is still registered.
        node.wait_event(cout, last_kev)

        def free_pools(token=token, mem=mem):
            entry = self._live_chunk_pools.pop(token, None)
            if entry is not None:
                for b in entry[1]:
                    mem.free(b)

        node.memcpy(
            cout, src=d, dst=HOST, nbytes=0, payload=free_pools,
            label=f"chunk-free:{task.name}@gpu{d}",
        )
        done = node.record_event(cout, f"{task.name}@gpu{d}#done")
        return done, last_kev

    def _free_chunk_pools(self) -> None:
        """Force-free every registered chunk staging pool set: release and
        device retirement destroy the streams holding the pools' deferred
        free."""
        for dev, bufs in self._live_chunk_pools.values():
            mem = self.node.devices[dev].memory
            for b in bufs:
                mem.free(b)
        self._live_chunk_pools.clear()

    def _chunk_in(
        self,
        datum: Datum,
        device: int,
        req,
        tmp: DeviceBuffer,
        peers: list[int],
        slot_waits: list[Event],
    ) -> list[Event]:
        """Stage one chunk-input requirement into a staging buffer; returns
        the copies' completion events. The device's own replica was evicted
        in stage 2, so Algorithm 2 sources from peers/host. The staging
        slab is transient and deliberately *not* marked as a replica."""
        node = self.node
        monitor = self.monitor
        events: list[Event] = []
        for virt, act in req.pieces:
            if act.empty:
                continue
            off = tuple(v - a for v, a in zip(virt.begin, act.begin))
            ops = monitor.compute_copies(datum, [act], device, prefer=peers)
            for op in ops:
                factory = self._chunk_in_factory(datum, tmp, off)
                if op.src == HOST:
                    stream = self._copy_in[device]
                else:
                    stream = self._copy_out[op.src]
                for wev in slot_waits:
                    node.wait_event(stream, wev)
                if op.wait is not None:
                    node.wait_event(stream, op.wait)
                payload = factory(op) if node.functional else None
                label = f"chunk-in:{datum.name}:{op.src}->{device}"
                cmd = node.memcpy(
                    stream,
                    src=op.src,
                    dst=device,
                    nbytes=op.actual.size * datum.dtype.itemsize,
                    payload=payload,
                    label=label,
                )
                ev = node.record_event(stream, label)
                cmd.origin = _TransferContext(
                    datum, op, ev, payload_factory=factory
                )
                monitor.mark_read(datum, op.src, ev, node.host_time)
                events.append(ev)
        return events

    def _chunk_in_factory(self, datum: Datum, tmp: DeviceBuffer, off):
        """Payload factory writing a copy's data into a staging buffer
        (also used by ``_reroute``, which must rebuild the payload for an
        alternate source against the *same* destination)."""

        def factory(op: CopyOp):
            def payload() -> None:
                tmp.view(op.actual.shift(off))[...] = self._copy_source(
                    datum, op
                )

            return payload

        return factory

    # -- helpers -------------------------------------------------------------------
    def _peers(self, device: int) -> list[int]:
        """Preferred copy sources: same-switch *alive* peers first
        (memoized; the cache is flushed when a fault retires a device)."""
        peers = self._peer_cache.get(device)
        if peers is None:
            topo = self.node.topology
            peers = [
                o
                for o in self._alive
                if o != device and topo.same_switch(o, device)
            ]
            self._peer_cache[device] = peers
        return peers

    def _enqueue_copy(
        self, datum: Datum, op: CopyOp, stream=None
    ) -> Event:
        """Queue one segment copy on the appropriate copy stream (or an
        explicit ``stream`` — speculation routes its staging and commit
        copies through a dedicated stream, see :meth:`_spec_stream`)."""
        node = self.node
        if stream is None:
            if op.src == HOST:
                stream = self._copy_in[op.dst]
            else:
                stream = self._copy_out[op.src]
        if op.wait is not None:
            node.wait_event(stream, op.wait)
        nbytes = op.actual.size * datum.dtype.itemsize
        payload = self._copy_payload(datum, op) if node.functional else None
        label = f"copy:{datum.name}:{op.src}->{op.dst}"
        cmd = node.memcpy(
            stream,
            src=op.src,
            dst=op.dst,
            nbytes=nbytes,
            payload=payload,
            label=label,
        )
        ev = node.record_event(stream, label)
        cmd.origin = _TransferContext(datum, op, ev)
        self.monitor.mark_copied(datum, op.dst, op.actual, ev)
        self.monitor.mark_read(datum, op.src, ev, node.host_time)
        return ev

    def _copy_payload(self, datum: Datum, op: CopyOp):
        analyzer = self.analyzer

        def payload() -> None:
            src_arr = self._copy_source(datum, op)
            if op.dst == HOST:
                datum.host[op.actual.slices()] = src_arr
            else:
                # A single-device wrap buffer may hold the region both at
                # its identity position and as a halo image: write every
                # alias so the buffer never disagrees with itself.
                dbuf = analyzer.buffer(datum, op.dst)
                for virt in locate_virtual_all(dbuf, op.actual, datum.shape):
                    dbuf.view(virt)[...] = src_arr

        return payload

    def _copy_source(self, datum: Datum, op: CopyOp):
        """The array a segment copy reads (resolved when its payload runs,
        since the source buffer may be allocated or grown until then)."""
        if op.src == HOST:
            return datum.host[op.actual.slices()]
        sbuf = self.analyzer.buffer(datum, op.src)
        return sbuf.view(locate_virtual(sbuf, op.actual, datum.shape))

    def _enqueue_clear(
        self, task: Task, container: OutputContainer, device: int,
        waits: list[Event],
    ) -> None:
        """Zero a duplicated output buffer before the kernel accumulates
        into it (device-side memset on the compute stream)."""
        node = self.node
        buf = self.analyzer.buffer(container.datum, device)
        spec = node.devices[device].spec
        calib = node.devices[device].calib
        duration = buf.nbytes / (spec.mem_bandwidth * calib.stream_efficiency)
        stream = self._compute[device]
        for ev in waits:
            node.wait_event(stream, ev)
        waits.clear()
        payload = None
        if node.functional:
            def payload(b=buf):  # noqa: E731 - small closure
                b.data.fill(0)
        node.launch_kernel(
            stream, duration, payload,
            label=f"memset:{container.datum.name}@gpu{device}",
        )

    def _kernel_payload(
        self, task: Task, device: int, step, num_active: int,
        race_pool: dict | None = None, buffers=None,
    ):
        """Functional payload running the kernel over one share of a task.

        ``step`` is a :class:`~repro.core.plan.DevicePlan` (a segment, run
        on its own device or speculated on another) or a
        :class:`~repro.core.plan.ChunkStep` (one out-of-core chunk); both
        carry the work rect, input requirements and owned output rects.
        ``buffers()`` is called at dispatch and returns the device buffers
        in ``task.containers`` order: by default the analyzer's buffers on
        ``device``, for chunks their staging slices. Unmodified routines
        (§4.6) get raw segment arrays, kernels get pattern views. With a
        ``race_pool`` (sanitize mode) the views record their accesses and
        the conformance checks run after the kernel; chunk kernels run
        without one (DESIGN.md §10).
        """
        kernel = task.kernel
        if not self.node.functional or kernel.func is None:
            return None
        if buffers is None:
            analyzer = self.analyzer

            def buffers() -> list[DeviceBuffer]:
                return [
                    analyzer.buffer(c.datum, device) for c in task.containers
                ]
        if kernel.raw:
            from repro.core.unmodified import RoutineContext

            segments = tuple(_by_container(
                task, [req.virtual for req in step.input_reqs],
                step.output_rects,
            ))

            def payload() -> None:
                kernel.func(RoutineContext(
                    device=device,
                    num_devices=num_active,
                    parameters=tuple(
                        buf.view(seg) for buf, seg in zip(buffers(), segments)
                    ),
                    container_segments=segments,
                    constants=task.constants,
                    context=kernel.context,
                ))

            return payload
        work_rect = step.work_rect

        def payload() -> None:
            recorder = None
            if race_pool is not None:
                from repro.sanitize.recorder import AccessRecorder

                recorder = AccessRecorder(
                    len(race_pool), work_rect, device=device
                )
            views = tuple(
                make_view(
                    c, buf, task.grid.shape, work_rect,
                    recorder=recorder, index=i,
                )
                for i, (c, buf) in enumerate(zip(task.containers, buffers()))
            )
            kernel.func(KernelContext(
                device=device,
                num_devices=num_active,
                grid=task.grid,
                work_rect=work_rect,
                views=views,
                constants=task.constants,
            ))
            if recorder is not None:
                from repro.sanitize.checker import check_races, check_segment

                race_pool[device] = recorder
                errors = check_segment(
                    task.name, task.containers, task.grid.shape, recorder
                )
                if not errors and len(race_pool) == num_active:
                    errors = check_races(
                        task.name, task.containers, task.grid.shape,
                        list(race_pool.values()),
                    )
                if errors:
                    raise errors[0]

        return payload
    # -- device-level reduce-scatter (Algorithm 1, line 17) -------------------------
    def _resolve_aggregation(
        self, datum: Datum, consumer_rects: dict[int, Rect]
    ) -> None:
        """Resolve a pending reductive aggregation for a consuming task.

        When each consumer device needs a *disjoint* region and the regions
        cover the datum, the partials are combined device-side: every
        consumer pulls its region from the other sources peer-to-peer and
        reduces locally — no host round trip. Otherwise (overlapping
        consumers, non-sum reductions, single device) the host-level
        aggregator path runs.
        """
        mode, sources = self.monitor.aggregation(datum)
        if (
            mode is not Aggregation.SUM
            or len(sources) <= 1
            or len(consumer_rects) <= 1
        ):
            self._aggregate(datum)
            return
        rects = list(consumer_rects.values())
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a.overlaps(b):
                    self._aggregate(datum)
                    return
        if datum.extent.subtract_all(rects):
            self._aggregate(datum)
            return
        self._reduce_scatter(datum, consumer_rects, sources)

    def _reduce_scatter(
        self,
        datum: Datum,
        consumer_rects: dict[int, Rect],
        sources: dict[int, Optional[Event]],
    ) -> None:
        node = self.node
        itemsize = datum.dtype.itemsize
        write_events: dict[int, tuple[Rect, Event]] = {}
        for d, rect in consumer_rects.items():
            if rect.empty:
                continue
            dbuf = self.analyzer.buffer(datum, d)
            stages: list[Any] = []
            copy_events: list[Event] = []
            for s, sev in sorted(sources.items()):
                if s == d:
                    continue
                stream = self._copy_out[s]
                if sev is not None:
                    node.wait_event(stream, sev)
                payload = None
                if node.functional:
                    sbuf = self.analyzer.buffer(datum, s)

                    def payload(sbuf=sbuf, rect=rect, stages=stages):
                        stages.append(sbuf.view(rect).copy())
                node.memcpy(
                    stream,
                    src=s,
                    dst=d,
                    nbytes=rect.size * itemsize,
                    payload=payload,
                    label=f"reduce-scatter:{datum.name}:{s}->{d}",
                )
                ev = node.record_event(stream, f"rs:{datum.name}:{s}->{d}")
                copy_events.append(ev)
                self.monitor.mark_read(datum, s, ev, node.host_time)
            # Local reduction kernel on the consumer's compute stream.
            stream = self._compute[d]
            own = sources.get(d)
            if own is not None:
                node.wait_event(stream, own)
            for ev in copy_events:
                node.wait_event(stream, ev)
            spec = node.devices[d].spec
            calib = node.devices[d].calib
            nbytes = rect.size * itemsize * (len(sources))
            duration = nbytes / (spec.mem_bandwidth * calib.stream_efficiency)
            payload = None
            if node.functional:
                has_own = d in sources

                def payload(dbuf=dbuf, rect=rect, stages=stages,
                            has_own=has_own):
                    view = dbuf.view(rect)
                    if not has_own:
                        view[...] = 0
                    for part in stages:
                        view += part
            node.launch_kernel(
                stream, duration, payload,
                label=f"reduce:{datum.name}@gpu{d}",
            )
            ev = node.record_event(stream, f"reduce:{datum.name}@gpu{d}")
            write_events[d] = (rect, ev)
        # The datum is now segmented among the consumers (the first
        # mark_written also clears the aggregation flag).
        for d, (rect, ev) in write_events.items():
            self.monitor.mark_written(datum, d, rect, ev)

    # -- host-level aggregation (§3.2 post-processing) -----------------------------
    def _aggregate(self, datum: Datum) -> Optional[Event]:
        """Combine per-device duplicated partials into the host buffer;
        returns the host aggregation's completion event."""
        mode, sources = self.monitor.aggregation(datum)
        if mode is Aggregation.NONE:
            return None
        node = self.node
        ic = node.interconnect
        stages: dict[int, Any] = {}
        copy_events: list[Event] = []
        for d, kev in sorted(sources.items()):
            buf = self.analyzer.buffer(datum, d)
            stream = self._copy_out[d]
            if kev is not None:
                node.wait_event(stream, kev)
            payload = None
            if node.functional:
                def payload(d=d, buf=buf):
                    stages[d] = (
                        buf.data.copy(),
                        getattr(buf, "dynamic_count", None),
                    )
            node.memcpy(
                stream,
                src=d,
                dst=HOST,
                nbytes=buf.nbytes,
                payload=payload,
                label=f"gather-partial:{datum.name}:{d}->host",
            )
            copy_events.append(
                node.record_event(stream, f"gather-partial:{datum.name}:{d}")
            )

        for ev in copy_events:
            node.wait_event(self._host_stream, ev)
        # The host combine is memory bound over all partials.
        duration = (
            len(sources) * datum.nbytes / ic.host_aggregation_bw
        )
        hpayload = None
        if node.functional:
            def hpayload():
                ordered = [stages[d] for d in sorted(stages)]
                if mode is Aggregation.APPEND:
                    total = 0
                    for arr, count in ordered:
                        n = int(count or 0)
                        datum.host[total : total + n] = arr[:n]
                        total += n
                    datum.dynamic_total = total  # type: ignore[attr-defined]
                else:
                    datum.host[...] = combine(
                        mode, [arr for arr, _ in ordered]
                    ).astype(datum.dtype, copy=False)
        node.host_op(
            self._host_stream, duration, hpayload,
            label=f"aggregate:{datum.name}",
        )
        hev = node.record_event(self._host_stream, f"aggregate:{datum.name}")
        self.monitor.mark_aggregated(datum, hev)
        return hev

    # -- straggler mitigation (DESIGN.md §11) -----------------------------------
    def _mitigate(self, alarm: StragglerAlarm) -> None:
        """React to a watchdog alarm: speculatively re-execute a lagging
        kernel segment on an idle device, or hedge a transfer stuck behind
        a degraded route from an alternate replica.

        The host notices at the watchdog deadline, so the host clock is
        advanced there first — every mitigation command submitted below
        carries the deadline as its ``earliest_start`` (recovery does the
        same with the fault time).
        """
        node = self.node
        node.host_time = max(node.host_time, alarm.time)
        # The projection itself is a throughput observation: a speculated
        # (cancelled) kernel never dispatches, so without this the
        # feedback loop would never learn about the straggler it keeps
        # paying to work around.
        if alarm.kind == "kernel":
            self._observe(
                "kernel", alarm.device, alarm.nominal,
                alarm.projected_end - alarm.start,
            )
            self._speculate_kernel(alarm)
        else:
            cmd = alarm.command
            self._observe(
                "memcpy", (cmd.src, cmd.dst), alarm.nominal,
                alarm.projected_end - alarm.start,
            )
            self._hedge_transfer(alarm)

    def _run_slow(self, alarm: StragglerAlarm) -> None:
        """Decline mitigation: re-queue the popped command untouched. Its
        origin is marked alarmed, so it runs (slowly) to completion, and
        its timeline is exactly what an unmitigated run would produce."""
        alarm.stream.commands.appendleft(alarm.command)

    def _spec_stream(self, device: int):
        """A dedicated per-device stream for speculative re-execution.

        Speculation commands must not queue behind unrelated work on the
        device's regular streams: an already-queued copy there may wait on
        the very completion event whose recording the speculation gates
        (the commit publication), which would deadlock the stream."""
        s = self._spec_streams.get(device)
        if s is None:
            s = self.node.new_stream(device, "spec", f"gpu{device}.spec")
            self._spec_streams[device] = s
        return s

    def _pick_alternate(
        self, alarm: StragglerAlarm
    ) -> Optional[tuple[int, float]]:
        """The device to re-execute a lagging segment on, with the time it
        is (estimated to be) free.

        Eligible peers are alive, active in the same plan, and have
        nothing queued on their compute stream beyond their own segment:
        later queued work was planned without knowledge of the speculation
        and could clobber the staged inputs. A peer whose own segment is
        still in flight is usable — the watchdog alarm surfaces at
        dispatch, which is earlier in dispatch order than the peers'
        completions even though the modelled reaction time (the deadline)
        is later — with its completion estimated from the plan's
        calibrated duration. Earliest-free wins; ties go to the lowest
        device index."""
        origin = alarm.command.origin
        node = self.node
        durations = self._durations(origin.task, origin.plan)
        cands = []
        for o in origin.plan.active:
            if o == origin.device or o not in self._alive \
                    or o in node.engine.dead:
                continue
            ev = origin.dev_events.get(o)
            if ev is None:
                continue
            cmds = self._compute[o].commands
            if ev.recorded:
                if cmds:
                    continue
                done = ev.recorded_at
            else:
                if not cmds or not (
                    isinstance(cmds[-1], EventRecord)
                    and cmds[-1].event is ev
                ):
                    continue
                done = alarm.start + durations[o] * max(
                    1.0, self._ewma_c.get(o, 1.0)
                )
            cands.append((done, o))
        if not cands:
            return None
        done, alt = min(cands)
        return alt, done

    def _estimate_speculation(
        self, alarm: StragglerAlarm, alt: int, alt_ready: float,
        staging: list,
    ) -> float:
        """Deterministic completion estimate of re-executing the slow
        segment on ``alt``: staging the missing inputs, the kernel at the
        alternate's calibrated (EWMA-corrected) speed, and the commit
        copies back to the slow device — serialized, as the speculation
        stream runs them in order. Compared by the caller against letting
        the straggler run to ``alarm.projected_end``."""
        topo = self.node.topology
        origin = alarm.command.origin
        dp = origin.plan.device_plans[origin.device]
        t = max(alarm.time, alt_ready)
        for datum, op in staging:
            nbytes = op.actual.size * datum.dtype.itemsize
            t += topo.transfer_time(nbytes, topo.path(op.src, alt)) \
                * self._ewma_t.get((op.src, alt), 1.0)
        t += self._duration(origin.task, alt, dp.work_rect) \
            * max(1.0, self._ewma_c.get(alt, 1.0))
        back = self._ewma_t.get((alt, origin.device), 1.0)
        for i, c in enumerate(origin.task.outputs):
            rect = dp.output_rects[i]
            if rect.empty:
                continue
            nbytes = rect.size * c.datum.dtype.itemsize
            t += topo.transfer_time(
                nbytes, topo.path(alt, origin.device)
            ) * back
        return t

    def _speculate_kernel(self, alarm: StragglerAlarm) -> None:
        """Re-execute a lagging kernel segment on an idle device,
        first-complete-wins (DESIGN.md §11).

        Commit-copy protocol: the alternate recomputes the slow device's
        exact segment (same work rect, same ``num_devices`` — bit-identical
        arithmetic), publishes its outputs in the location monitor
        (retracting the slow device's optimistic submit-time instances),
        then copies them into the slow device's buffer. The slow stream's
        still-queued completion EventRecord is gated on the commit, so
        already-queued downstream consumers — which wait on that event and
        whose payloads are bound to the slow device's buffer — stay
        correct in both data and time; the task handle's events never
        change. The loser kernel is dropped (its writes were purely
        simulated-future, so there is nothing to discard)."""
        node = self.node
        fp = node.faults
        monitor = self.monitor
        origin = alarm.command.origin
        task, plan, d = origin.task, origin.plan, origin.device
        dp = plan.device_plans[d]
        picked = self._pick_alternate(alarm)
        if (
            picked is None
            or fp.speculations_fired >= fp.max_speculations
            or self.sanitize
            or any(c.duplicated for c in task.outputs)
            or any(
                o.datum is i.datum for o in task.outputs for i in task.inputs
            )
        ):
            # No idle healthy device, budget exhausted, or the task is
            # outside speculation's envelope (duplicated partials would
            # double-count; in-place datums could cycle the commit
            # publication; sanitize-mode race pools need every segment's
            # recorder): let the straggler run.
            self._run_slow(alarm)
            return
        alt, alt_ready = picked
        # Staging plan (pure): input pieces the alternate is missing.
        staging: list[tuple[Datum, CopyOp]] = []
        for c, req in zip(task.inputs, dp.input_reqs):
            for op in monitor.compute_copies(
                c.datum, [a for _, a in req.pieces], alt,
                prefer=self._peers(alt),
            ):
                staging.append((c.datum, op))
        if any(op.wait is not None and not op.wait.recorded
               for _, op in staging):
            # An unrecorded staging producer may transitively wait on this
            # very segment's completion event — speculating could deadlock.
            self._run_slow(alarm)
            return
        if self._estimate_speculation(alarm, alt, alt_ready, staging) \
                >= alarm.projected_end:
            self._run_slow(alarm)
            return
        # Grow the alternate's boxes/buffers to cover the slow segment
        # before touching any shared state: a genuine OOM abandons the
        # speculation cleanly; an injected one retires the device (the
        # standard allocation-fault path).
        try:
            for c, req in zip(task.inputs, dp.input_reqs):
                self.analyzer.absorb(c.datum, alt, req.virtual)
            for c, rect in zip(task.outputs, dp.output_rects):
                self.analyzer.absorb(c.datum, alt, rect)
            for c in task.containers:
                self.analyzer.buffer(c.datum, alt)
        except AllocationError as e:
            self._run_slow(alarm)
            if e.injected:
                self._recover(e.device, node.time)
            return
        fp.speculations_fired += 1
        stream = self._spec_stream(alt)
        # Serialize the speculation after the alternate's own segment:
        # data-wise the two touch disjoint regions, but the explicit wait
        # keeps the alternate's own completion — which downstream
        # consumers depend on — first in line for its compute engine.
        node.wait_event(stream, origin.dev_events[alt])
        for datum, op in staging:
            self._enqueue_copy(datum, op, stream=stream)
        payload = self._kernel_payload(task, alt, dp, origin.num_active)
        label = f"spec:{task.name}@gpu{alt}"
        node.launch_kernel(
            stream, self._duration(task, alt, dp.work_rect), payload,
            label=label,
        )
        skev = node.record_event(stream, label)
        for c in task.inputs:
            monitor.mark_read(c.datum, alt, skev, node.host_time)
        commit_evs = []
        for i, c in enumerate(task.outputs):
            rect = dp.output_rects[i]
            if rect.empty:
                continue
            monitor.mark_written(c.datum, alt, rect, skev)
            commit_evs.append(self._enqueue_copy(
                c.datum, CopyOp(alt, d, rect, skev), stream=stream
            ))
        # Gate the slow stream's queued completion EventRecord on the
        # commit: the event publishes once the buffer is truly up to date.
        for ev in commit_evs:
            alarm.stream.commands.appendleft(EventWait(
                label=f"wait:{ev.label}",
                earliest_start=alarm.time,
                event=ev,
            ))

    def _hedge_transfer(self, alarm: StragglerAlarm) -> None:
        """Re-route a transfer stuck behind a degraded link: once the
        hedging deadline passes, re-issue it from an alternate ready
        replica (DESIGN.md §11). With no alternate (or no budget) the slow
        transfer runs to completion; with neither, the typed
        :class:`~repro.errors.StragglerTimeoutError` tells the application
        the route is degraded beyond the mitigation budget."""
        node = self.node
        fp = node.faults
        cmd = alarm.command
        alt = self._alternate(cmd.origin)
        has_budget = fp.hedges_fired < fp.max_speculations
        if alt is None and not has_budget:
            raise StragglerTimeoutError(
                f"transfer {cmd.label!r} projected "
                f"{alarm.projected_end - alarm.start:.3g}s against "
                f"{alarm.nominal:.3g}s calibrated; no alternate replica "
                "exists and the mitigation budget is exhausted",
                device=alarm.device,
                time=alarm.time,
            ) from alarm
        if alt is not None:
            # Hedge only when the reroute beats the degraded route's
            # projection (deterministic estimate, like speculation): the
            # alternate starts at the hedging deadline and may itself be
            # running over calibration.
            topo = node.topology
            dst = cmd.origin.op.dst
            est = alarm.time + topo.transfer_time(
                cmd.nbytes, topo.path(alt[0], dst, cmd.pageable)
            ) * self._ewma_t.get((alt[0], dst), 1.0)
            if est >= alarm.projected_end:
                alt = None
        if alt is None or not has_budget:
            self._run_slow(alarm)
            return
        fp.hedges_fired += 1
        self._reroute(cmd, alarm.stream, alt, "hedge", alarm.time)

    # -- fault recovery (DESIGN.md §8) ---------------------------------------------
    def _drive(self, run):
        """Call ``run()`` until it returns, recovering from every typed
        fault it surfaces: a transient transfer fault is retried, a
        straggler alarm mitigated, a permanent device fault recovered
        from. The one fault loop behind ``wait``, ``wait_all`` and
        ``_settle``."""
        while True:
            try:
                return run()
            except TransientTransferError as f:
                self._retry_transfer(f)
            except StragglerAlarm as a:
                self._mitigate(a)
            except DeviceFault as f:
                self._recover(f.device, f.time)

    def _alternate(
        self, ctx: Optional[_TransferContext]
    ) -> Optional[tuple[int, Optional[Event]]]:
        """The first ready replica (peer devices first, host last) of a
        segment copy's bytes other than its current source, as ``(src,
        producer event)``; None for copies without provenance. Only ready
        replicas are eligible (see LocationMonitor.ready_replicas)."""
        op = ctx.op if ctx is not None else None
        if op is None:
            return None
        ready = self.monitor.ready_replicas(
            ctx.datum, op.actual, exclude=(op.src,),
            dead=self.node.engine.dead,
        )
        return ready[0] if ready else None

    def _reroute(
        self, cmd, stream, alt: tuple[int, Optional[Event]], kind: str,
        not_before: float,
    ) -> None:
        """Re-issue a segment copy from the alternate replica ``alt``
        (``kind`` is ``"retry"`` or ``"hedge"``, also the label prefix),
        starting no earlier than ``not_before``. The replacement goes to
        the *front* of the copy's stream, so the already queued completion
        EventRecord still publishes the copy to its waiters. Chunk-staging
        copies rebuild their payload against the same staging destination
        (``payload_factory``); regular copies target the analyzer's
        buffer."""
        ctx = cmd.origin
        op = ctx.op
        src, src_ev = alt
        new_op = CopyOp(src, op.dst, op.actual, src_ev)
        ctx.op = new_op
        payload = None
        if self.node.functional:
            if ctx.payload_factory is not None:
                payload = ctx.payload_factory(new_op)
            else:
                payload = self._copy_payload(ctx.datum, new_op)
        replacement = type(cmd)(
            label=f"{kind}:{cmd.label}",
            payload=payload,
            earliest_start=max(cmd.earliest_start, not_before),
            src=src,
            dst=op.dst,
            nbytes=cmd.nbytes,
            pageable=cmd.pageable,
            extra_latency=cmd.extra_latency,
            origin=ctx,
        )
        stream.commands.appendleft(replacement)
        if src_ev is not None:
            # Already recorded (eligibility filter), but waiting pins the
            # replacement's start after the replica's producer. A retry's
            # wait keeps the faulted copy's own start; a hedge's starts
            # with its replacement at the hedging deadline.
            stream.commands.appendleft(EventWait(
                label=f"wait:{src_ev.label}",
                earliest_start=(
                    cmd.earliest_start if kind == "retry"
                    else replacement.earliest_start
                ),
                event=src_ev,
            ))
            if ctx.done_event is not None:
                self.monitor.mark_read(
                    ctx.datum, src, ctx.done_event, self.node.host_time
                )

    def _retry_transfer(self, fault: TransientTransferError) -> None:
        """Re-queue a transiently-faulted memcpy after a capped exponential
        backoff in simulated time.

        A segment copy (it carries a :class:`_TransferContext`) is retried
        from an alternate valid replica (:meth:`_alternate`) when the
        location monitor knows one, via :meth:`_reroute`; otherwise over
        the original route, which is always safe because the original
        source dependency was already satisfied before the first attempt.
        """
        plan = self.node.faults
        cmd, stream = fault.command, fault.stream
        ctx = cmd.origin
        if ctx is None:
            ctx = cmd.origin = _TransferContext(None, None, None)
        ctx.attempt += 1
        if ctx.attempt > plan.max_retries:
            raise UnrecoverableError(
                f"transfer {cmd.label!r} still failing after "
                f"{ctx.attempt - 1} retries"
            ) from fault
        not_before = fault.time + plan.backoff(ctx.attempt)
        alt = self._alternate(ctx)
        if alt is None:
            cmd.earliest_start = max(cmd.earliest_start, not_before)
            stream.commands.appendleft(cmd)
            return
        self._reroute(cmd, stream, alt, "retry", not_before)

    def _recover(self, device: int, at_time: float) -> None:
        """Permanent-failure recovery: retire the device and resubmit every
        incomplete task and gather over the survivors (in original
        submission order, so recomputed values flow exactly as first
        scheduled). Cascading injected allocation failures during
        resubmission retire further devices."""
        while True:
            try:
                self._retire_device(device, at_time)
                self._resubmit()
                return
            except AllocationError as e:
                if not e.injected:
                    raise
                device, at_time = e.device, self.node.time

    def _retire_device(self, device: int, at_time: float) -> None:
        """Drop one device from the schedulable set and purge every piece
        of host-side state that mentioned it."""
        alive = tuple(d for d in self._alive if d != device)
        if not alive:
            raise UnrecoverableError(
                f"device {device} failed at t={at_time:.6g} and no devices "
                "survive; restart from an application checkpoint"
            )
        self._alive = alive
        self._graph_generation += 1
        node = self.node
        node.retire_device(device, at_time)
        # Abort everything in flight: queued commands reference dead
        # buffers and events that will never record. Incomplete work is
        # re-issued from the submission log instead.
        for s in node.streams:
            s.commands.clear()
        node.host_time = max(node.host_time, at_time)
        # The stream purge destroyed the pools' deferred free (on the
        # dead device, freeing is accounting hygiene only).
        self._free_chunk_pools()
        self.monitor.invalidate_for_recovery((device,))
        self.plans.invalidate_device(device)
        self._peer_cache.clear()
        self.analyzer.drop_device(device)
        # Straggler feedback mentioning the dead device is meaningless
        # now; re-derive segment weights over the survivors.
        self._ewma_c.pop(device, None)
        for key in [k for k in self._ewma_t if device in k]:
            del self._ewma_t[key]
        self._weights = self._current_weights()
        # Re-segmenting over the survivors grows their requirement boxes;
        # re-analyze every declared task so allocations are resized before
        # resubmission (growth preserves surviving contents). The grown
        # boxes may no longer fit next to evictable leftovers — the OOM
        # handler frees those rather than failing the recovery.
        for t in self._analyzed:
            self.analyzer.ensure(
                t, self._alive, oom_handler=self._recovery_oom,
                weights=self._weights,
            )

    def _resubmit(self) -> None:
        """Re-issue incomplete tasks and gathers in submission order."""
        log = list(self._log)
        for i, entry in enumerate(log):
            if isinstance(entry, TaskHandle):
                if not entry.events or all(e.recorded for e in entry.events):
                    continue
                task = entry.task
                try:
                    plan = self._lookup_or_build(task)
                    self._replay(task, plan, handle=entry)
                except _RescheduleError:
                    # A settle inside the replay retired another device;
                    # the nested recovery already resubmitted every
                    # incomplete entry over the new alive set.
                    return
                except SchedulingError as e:
                    # A needed input segment has no surviving replica: the
                    # fault destroyed data that was never checkpointed.
                    raise UnrecoverableError(
                        f"cannot resubmit task {task.name!r}: {e}"
                    ) from e
            else:
                if entry.complete:
                    continue
                try:
                    entry.events = self._gather_events(
                        entry.datum, entry.region
                    )
                except (SchedulingError, UnrecoverableError) as e:
                    # The fault landed between a task's completion and its
                    # checkpoint copy-out: the task counts as done, but
                    # part of its output (a stripe, or an aggregation
                    # partial) died with the device. The producing task is
                    # still in the log — pruning happens only on fault-free
                    # waits — so recompute it from its own inputs, then
                    # retry the gather.
                    if not self._recompute_producer(entry.datum, log[:i]):
                        raise UnrecoverableError(
                            f"cannot re-issue gather of "
                            f"{entry.datum.name!r}: {e}"
                        ) from e
                    try:
                        entry.events = self._gather_events(
                            entry.datum, entry.region
                        )
                    except SchedulingError as e2:
                        raise UnrecoverableError(
                            f"cannot re-issue gather of "
                            f"{entry.datum.name!r}: {e2}"
                        ) from e2

    def _recompute_producer(self, datum: Datum, preceding: list) -> bool:
        """Force-resubmit the most recent logged task writing ``datum``.

        Returns False when no such task is in the log, or its own inputs
        have no surviving replica (only one producer level is recomputed:
        an application checkpointing every step never needs more; one that
        doesn't has no host anchor to recompute from anyway)."""
        for entry in reversed(preceding):
            if not isinstance(entry, TaskHandle):
                continue
            task = entry.task
            writes = any(
                isinstance(c, OutputContainer) and c.datum is datum
                for c in task.containers
            )
            if not writes:
                continue
            while True:
                try:
                    plan = self._lookup_or_build(task)
                    self._replay(task, plan, handle=entry)
                except _RescheduleError:
                    # Nested recovery shrank the alive set mid-replay; the
                    # producer (complete in the log, so skipped by the
                    # nested resubmission) still needs this recompute —
                    # retry it over the survivors.
                    continue
                except SchedulingError:
                    return False
                return True
        return False

    def _prune_log(self) -> None:
        """Drop completed entries from the submission log (everything ran,
        so nothing before this point can ever need resubmission), so it
        does not grow with the number of invocations."""
        if self._log:
            self._log = [
                e for e in self._log
                if not (
                    all(ev.recorded for ev in e.events)
                    if isinstance(e, TaskHandle) else e.complete
                )
            ]

    # -- paper-style CamelCase aliases ------------------------------------------------
    AnalyzeCall = analyze_call
    Invoke = invoke
    InvokeUnmodified = invoke_unmodified
    Gather = gather
    GatherAsync = gather_async
    Wait = wait
    WaitAll = wait_all


class _CaptureContext:
    """Context manager of :meth:`Scheduler.capture`."""

    def __init__(self, scheduler: Scheduler):
        self._sched = scheduler
        self.graph: IterationGraph | None = None

    def __enter__(self) -> IterationGraph:
        self.graph = self._sched.begin_batch()
        return self.graph

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._sched.end_batch()
        else:
            self._sched._abort_batch()
        return False
