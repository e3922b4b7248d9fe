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
are created per device the scheduler drives — the simulation counterpart
of the paper's one-invoker-thread-per-device design with concurrent
copy/compute queues.

Three mechanisms live outside this path, behind hooks that run only when
armed: memory pressure (``core/pressure.py``, DESIGN.md §10), straggler
mitigation (``core/mitigation.py``, §11) and fault recovery
(``core/recovery.py``, §8).
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Iterator, Mapping, Optional

from repro.core import recovery
from repro.core.buffers import locate_virtual, locate_virtual_all
from repro.core.datum import Datum
from repro.core.graph import GraphRecorder, IterationGraph, snapshot_monitor
from repro.core.grid import Grid
from repro.core.location_monitor import CopyOp, LocationMonitor
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.core.mitigation import Mitigator, _KernelOrigin
from repro.core.plan import (
    COPY_MEMO_LIMIT,
    BoundPlan,
    NodeTables,
    PlanCache,
    TaskPlan,
    bounded_put,
    build_plan,
    check_plan,
    freeze_constants,
    geometry_key,
    prekey,
    store_template,
)
from repro.core.pressure import MemoryPressure
from repro.core.recovery import _GatherRecord, _RescheduleError, _TransferContext
from repro.core.task import CostContext, Kernel, Task, TaskHandle
from repro.device_api.context import KernelContext
from repro.device_api.views import make_view
from repro.errors import (
    AllocationError,
    DeviceError,
    DeviceFault,
    GraphCaptureError,
    SchedulingError,
    StragglerAlarm,
    TransientTransferError,
)
from repro.hardware.topology import HOST
from repro.patterns.base import Aggregation
from repro.patterns.output_patterns import combine
from repro.sim.commands import Event
from repro.sim.memory import DeviceBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import SimNode


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
                across devices once all of a task's kernels have run.
                Violations are recorded in :attr:`violations`; the drain
                completes, then ``wait``/``wait_all`` raise the first one
                not raised before (a typed
                :class:`~repro.sanitize.errors.SanitizerError`). Requires a
                functional node.
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
        #: Sanitize mode: every violation found, in the order the
        #: checks ran, and how many of them a wait has raised.
        self.violations: list = []
        self._violations_raised = 0
        # One knob controls all cross-invocation amortization. With the
        # plan cache on, plans, call templates and monitor transitions
        # come from the node's shared geometry tables, so they
        # outlive this scheduler (the job server's next lease replays
        # them). With it off, nothing is memoized or shared: every
        # invocation recomputes from scratch (the honest uncached baseline
        # for `repro.bench --overhead`, and the differential oracle).
        tables = NodeTables.of(node) if plan_cache else NodeTables()
        self.analyzer = MemoryAnalyzer(node)
        self.monitor = LocationMonitor(tables.geom_ids, tables.transitions)
        self.monitor.amortize = plan_cache
        #: Host-gather copy decisions (``_copy_ops``), node-shared.
        self._gathers = tables.gathers if plan_cache else None
        self.plans = PlanCache(enabled=plan_cache, plans=tables.plans)
        #: The node's call templates (``analyze_call``); None with the
        #: plan cache off.
        self._templates = tables.templates if plan_cache else None
        #: ``plan.prekey`` -> the submission's ``BoundPlan`` (DESIGN.md
        #: §7); empty with the plan cache off.
        self._prebound: dict[tuple, BoundPlan] = {}
        g = node.num_gpus
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
        # The invoker streams of this scheduler's devices, keyed by device
        # (the set never grows, so every device it will use has them).
        self._compute = {
            d: node.new_stream(d, "compute", f"gpu{d}.compute") for d in alive
        }
        self._copy_in = {
            d: node.new_stream(d, "copy-in", f"gpu{d}.copy-in") for d in alive
        }
        self._copy_out = {
            d: node.new_stream(d, "copy-out", f"gpu{d}.copy-out") for d in alive
        }
        self._host_stream = node.new_stream(HOST, "host", "host.aggregate")
        #: Set by :meth:`release`: the scheduler gave its streams and
        #: buffers back to the node and must not be driven again.
        self._released = False
        #: One record per call registered via analyze_call, keyed by its
        #: binding (``plan.prekey``) in first-analysis order: the first
        #: analyzed task (re-analyzed when recovery or rebalancing
        #: re-segments work, and rebound by invokes) and the template
        #: plan of the latest analysis (None without a template), which
        #: an invoke without a bound record looks its plan up by.
        self._analyzed: dict[tuple, tuple[Task, TaskPlan | None]] = {}
        #: Submission log (TaskHandles and _GatherRecords in order) driving
        #: ordered resubmission after a permanent failure; bounded after
        #: every wait (``recovery.prune_log``).
        self._log: list = []
        #: Eviction and out-of-core chunking (DESIGN.md §10).
        self._pressure = MemoryPressure(self)
        #: Current quantized throughput weights (None = even split).
        self._weights: tuple[int, ...] | None = None
        #: Straggler mitigation (DESIGN.md §11), strictly opt-in via
        #: FaultPlan.mitigate_stragglers alone (off on the node's empty
        #: plan). Without it the scheduler holds no mitigation state.
        self._mitigator = (
            Mitigator(self) if node.faults.mitigate_stragglers else None
        )
        # Iteration-graph capture & replay (DESIGN.md §12). The generation
        # counter is bumped by every steady-state-breaking transition
        # (weight rebalance, device retirement, replica eviction, chunk
        # planning); captured graphs are valid for one generation only.
        self._graph_generation = 0
        #: The recorder of the capture in progress (:meth:`capture`).
        self._recorder: GraphRecorder | None = None

    @property
    def alive_devices(self) -> tuple[int, ...]:
        """Devices currently scheduled onto (shrinks under faults)."""
        return self._alive

    @property
    def handles(self) -> list[TaskHandle]:
        """Handles of invocations not yet seen complete, read from the
        submission log (a fresh list)."""
        return [
            e for e in self._log
            if isinstance(e, TaskHandle) and not e.complete
        ]

    @property
    def capturable(self) -> bool:
        """Whether :meth:`capture` may record: the capture records
        resolved plans (plan cache on) and the sanitizer must see every
        eager dispatch (sanitize off)."""
        return self.plans.enabled and not self.sanitize

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
        scheduler — the workload re-captures on its next lease). A
        capture still recording removes its hooks when its ``with`` block
        exits, never compiled. Safe to call twice; every driving entry
        point raises :class:`~repro.errors.SchedulingError` afterwards.
        """
        if self._released:
            return
        self._released = True
        # Spoil captured graphs before anything else: a launch racing the
        # teardown must take neither the fast path nor the eager fallback.
        self._graph_generation += 1
        node = self.node
        # == not `is`: bound-method objects are created per access, so
        # identity would never match and a stale observer would outlive
        # the lease, crashing the next tenant's dispatches.
        mitigator = self._mitigator
        if mitigator is not None and node.engine.observer == mitigator.observe:
            node.engine.observer = None
        # A preempted or faulted lease may have destroyed the pools'
        # deferred free.
        self._pressure.free_pools()
        self.analyzer.release_all()
        self._prebound.clear()
        own = {id(self._host_stream)}
        for group in (self._compute, self._copy_in, self._copy_out):
            own.update(id(s) for s in group.values())
        if mitigator is not None:
            own.update(id(s) for s in mitigator.spec_streams.values())
        node.drop_streams(own)

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
        :meth:`invoke`. A device buffer that already exists grows, its
        contents kept, when the task widens its datum's box.

        With the plan cache on, a call shape analyzed before on this node
        (``plan.geometry_key``: the same kernel, grid argument, container
        types and parameters, datum shapes and dtypes, alive set and
        weights) is bound from its node-level template: the task is a
        :meth:`Task.rebind` and the rects of the template's plan are
        folded into the new datums' boxes. Otherwise the task is built and
        checked, and it and its plan become the shape's template."""
        self._check_live()
        self._no_capture("analyze_call")
        if self._mitigator is not None:
            self._mitigator.refresh()
        alive, weights = self._alive, self._weights
        templates = self._templates
        try:
            key = prekey(kernel, containers, grid)
            gkey = None if templates is None else geometry_key(
                kernel, containers, grid, alive, weights
            )
        except TypeError:  # an unhashable parameter: never deduplicated
            key = gkey = None
        template = None if gkey is None else templates.get(gkey)
        if template is None:
            task = Task(kernel, containers, grid, constants)
            if gkey is not None:
                template = store_template(
                    templates, gkey, task, alive, weights, self._peers
                )
        else:
            task = Task.rebind(template, containers, constants)
        plan = None if template is None else template.plan
        self.analyzer.ensure(task, alive, weights=weights, plan=plan)
        if key is None:
            key = (task,)
        first = self._analyzed.get(key)
        self._analyzed[key] = (task if first is None else first[0], plan)
        self.node.host_advance(self.node.interconnect.scheduler_container_overhead)
        return task

    def _reanalyze(self) -> None:
        """Fold every analyzed call again under the current alive set and
        weights (recovery and rebalancing re-segment work), so buffers
        grow, contents kept, before the next plan build. A grown box that
        no longer fits next to evictable leftovers frees those rather
        than failing."""
        for task, _ in self._analyzed.values():
            self.analyzer.ensure(
                task, self._alive, oom_handler=self._pressure.recovery_oom,
                weights=self._weights,
            )

    def invoke(
        self,
        kernel: Kernel,
        *containers,
        grid: Grid | None = None,
        constants: Mapping[str, Any] | None = None,
    ) -> TaskHandle:
        """Schedule and queue a task (Algorithm 1). Returns a handle."""
        if self._recorder is not None:
            self._recorder.graph.invokes += 1
            self._capture_call(
                self.invoke, kernel, *containers, grid=grid, constants=constants
            )
        return self._submit(kernel, containers, grid, constants)

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
        if self._recorder is not None:
            self._recorder.graph.invokes += 1
            self._capture_call(
                self.invoke_unmodified, routine, *containers,
                grid=grid, constants=constants,
            )
        return self._submit(routine, containers, grid, constants)

    def gather_async(self, datum: Datum) -> None:
        """Queue the transfers (and aggregation) bringing ``datum`` back
        into its bound host buffer."""
        if self._recorder is not None:
            self._capture_gather(self.gather_async, datum)
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
        self._check_region(datum, region)
        self._gather_region(datum, region)

    def _gather_region(self, datum: Datum, region: Rect) -> None:
        """:meth:`gather_region` past its region check. A capture records
        this, so a graph's eager fallback does not re-check a region that
        was checked when the capture recorded it."""
        if self._recorder is not None:
            self._capture_gather(self._gather_region, datum, region)
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
        region are stale; the rest stays valid. A capture records the
        mark past its region check, and its launches apply it."""
        self._check_region(datum, region)
        self.mark_checked_region_dirty(datum, region)

    def mark_checked_region_dirty(self, datum: Datum, region: Rect) -> None:
        """:meth:`mark_host_region_dirty` of a region its caller already
        validated against ``datum`` (a :class:`~repro.core.graph.Loop`
        checks each region once, and a cluster agent's ghost marks reach
        the scheduler only through its loop's runs). A launch of a graph
        that recorded the mark costs nothing for it: the mark compacts no
        read list, so the graph's exit holds its whole effect."""
        rec = self._recorder
        if rec is not None:
            self._capture_call(self.mark_checked_region_dirty, datum, region)
            rec.regions.add(id(datum))
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
        here (see module docstring). Inside a capture it is recorded as a
        host sync: the launch drains there too."""
        self._check_live()
        rec = self._recorder
        if rec is None:
            t = self._drive(self.node.run)
        else:
            self._capture_call(self.wait_all)
            before = rec.sync_mark(self.node.host_time)
            t = self._drive(self.node.run)
            rec.record_sync(before, self.node.host_time)
        recovery.prune_log(self, keep_producers=False)
        if self.sanitize:
            self._raise_violation()
        return t

    def wait(self, handle: TaskHandle) -> float:
        """Wait for a specific task; returns the simulated time at which
        its last per-device kernel completed.

        Runs the simulation only until every completion event recorded for
        ``handle`` has fired (cudaEventSynchronize semantics, not a full
        device drain): commands of later, independent tasks may remain
        queued afterwards and are executed by a subsequent ``wait``/
        ``wait_all``. The host clock advances to the task's completion
        time, as the calling host thread blocks until then. Once the
        drain leaves every logged entry complete, the submission log keeps
        only the latest producer of each datum.
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

        t = self._drive(lap)
        recovery.prune_log(self, keep_producers=True)
        if self.sanitize:
            self._raise_violation()
        return t

    def _raise_violation(self) -> None:
        """Sanitize mode: raise the first violation found since the last
        one raised. Called once a drain has finished, so the node is
        consistent when the error reaches the caller."""
        found = self.violations
        if self._violations_raised < len(found):
            first = found[self._violations_raised]
            self._violations_raised = len(found)
            raise first

    def mark_host_dirty(self, datum: Datum) -> None:
        """Tell the framework the bound host buffer was modified by the
        application, invalidating device-resident instances. A capture
        records the mark, and its launches apply it; the upload itself
        reads the host buffer when its copy runs."""
        rec = self._recorder
        if rec is not None:
            self._capture_call(self.mark_host_dirty, datum)
            rec.record_mark(id(datum), self.monitor.host_reads(datum))
        self.monitor.mark_host_dirty(datum, self.node.host_time)

    # -- iteration graphs (DESIGN.md §12) ---------------------------------------
    def _no_capture(self, what: str) -> None:
        if self._recorder is not None:
            raise GraphCaptureError(
                f"{what} is not allowed while an iteration-graph capture "
                "is recording: a captured period may only submit invokes, "
                "gathers of datums without pending partials, host-dirty "
                "marks (of whole datums or regions) and wait_all"
            )

    def _capture_call(self, fn, *args, **kwargs) -> None:
        """Keep a call of the recording capture for its fallback path."""
        self._recorder.graph.calls.append((fn, args, kwargs))

    def _capture_gather(self, fn, datum: Datum, *args) -> None:
        """A gather joins the recording capture: its copies and
        host-landing monitor updates are recorded like an invoke's.
        Aggregating partials is a host-side combine the graph does not
        capture."""
        if self.monitor.needs_aggregation(datum):
            self._no_capture(f"gathering {datum.name!r} (pending partials)")
        self._capture_call(fn, datum, *args)

    @contextlib.contextmanager
    def capture(self) -> Iterator[IterationGraph]:
        """Capture one steady-state period into an
        :class:`~repro.core.graph.IterationGraph`:
        ``with sched.capture() as g:``.

        Drains all outstanding work first (the capture must start from a
        quiescent node), then records every command the block's
        ``invoke``/``invoke_unmodified`` and ``gather_async``/
        ``gather_region`` calls produce, with the host-dirty marks (whole
        ``mark_host_dirty`` and region ``mark_host_region_dirty`` ones) and
        ``wait_all`` syncs between them. Leaving the block drains the
        period and compiles ``g`` (a period that cannot replay keeps the
        fallback path only); an exception aborts it. Requires the plan
        cache (the capture records *resolved* plans) and is unavailable in
        sanitize mode (the sanitizer must observe every eager dispatch).
        """
        self._check_live()
        if self._recorder is not None:
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
        node, monitor = self.node, self.monitor
        rec = GraphRecorder(
            IterationGraph(self), node.host_time, snapshot_monitor(monitor),
            self._graph_generation,
        )
        # The three recorder hooks: commands and events, the writers'
        # consumed read lists, and submission-time device-LRU touches.
        node.graph_recorder = rec
        monitor.war_log = rec.war_log
        for d in node.devices:
            mem = d.memory
            cls = type(mem)

            def _touch(buf, _mem=mem, _cls=cls, _rec=rec):
                _rec.touches.append((_mem, buf))
                _cls.touch(_mem, buf)

            mem.touch = _touch
        self._recorder = rec
        try:
            yield rec.graph
        except BaseException:
            rec.graph._fail("capture aborted")
            raise
        finally:
            self._recorder = None
            node.graph_recorder = None
            monitor.war_log = None
            for d in node.devices:
                d.memory.__dict__.pop("touch", None)
        h_submit_end = node.host_time
        self.wait_all()
        rec.graph._finalize(rec, h_submit_end)

    # -- Algorithm 1 ------------------------------------------------------------
    def _submit(self, kernel, containers, grid, constants) -> TaskHandle:
        """Build a submission's task and schedule it. With the plan cache
        on, a submission whose ``plan.prekey`` has a bound record reuses
        the record's task shape (``Task.rebind``), plan and buffers; one
        without a record but analyzed by ``analyze_call`` rebinds the
        analyzed task."""
        key = shape = rec = None
        if self.plans.enabled:
            try:
                key = prekey(kernel, containers, grid)
            except TypeError:  # an unhashable parameter: never bound
                pass
            else:
                rec = self._prebound.get(key)
                if rec is not None:
                    shape = rec.task
                elif key in self._analyzed:
                    shape = self._analyzed[key][0]
        if shape is None:
            task = Task(kernel, containers, grid, constants)
        else:
            task = Task.rebind(shape, containers, constants)
        return self._schedule(task, key, rec)

    def _schedule(
        self, task: Task, key: tuple | None = None,
        rec: BoundPlan | None = None,
    ) -> TaskHandle:
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
                plan = self._lookup_or_build(task, rec, key)
                return self._replay(task, plan, key=key, rec=rec)
            except _RescheduleError:
                continue  # a drain-time recovery changed the alive set
            except AllocationError as e:
                if not e.injected:
                    raise
                recovery.recover(self, e.device, self.node.time)

    def _lookup_or_build(
        self, task: Task, rec: BoundPlan | None = None,
        key: tuple | None = None,
    ) -> TaskPlan:
        if self._mitigator is not None:
            self._mitigator.refresh()
        alive, weights = self._alive, self._weights
        if (
            rec is not None
            and rec.plan.cached
            and rec.devices == alive
            and rec.weights == weights
        ):
            # The plan the record's submission was looked up under, with
            # its binding already checked.
            return self.plans.hit(rec.plan)
        # A call analyzed under the current alive set and weights has the
        # plan its template was built with: the lookup takes its signature,
        # and a miss stores it.
        analyzed = None if key is None else self._analyzed.get(key)
        declared = None if analyzed is None else analyzed[1]
        if declared is not None and (
            declared.devices != alive or declared.weights != weights
        ):
            declared = None
        plan = self.plans.lookup(
            task, alive, weights=weights,
            signature=None if declared is None else declared.signature,
        )
        if plan is None:
            # Slow path: runs once per task signature on the node (or
            # every time with the cache disabled).
            plan = declared if declared is not None else build_plan(
                task, alive, peers_of=self._peers, weights=weights
            )
            if not plan.active:
                raise SchedulingError(f"task {task.name} has an empty grid")
            self.plans.store(plan)
        # A plan is geometry only, so an invoke without a valid bound
        # record checks it against its datums' analyzed boxes (after the
        # implicit analysis, if on).
        if self.auto_analyze:
            self.analyzer.ensure(task, alive, weights=weights, plan=plan)
        check_plan(task, plan, self.analyzer)
        return plan

    def _replay(
        self, task: Task, plan: TaskPlan, handle: TaskHandle | None = None,
        key: tuple | None = None, rec: BoundPlan | None = None,
    ) -> TaskHandle:
        node = self.node
        monitor = self.monitor
        active = plan.active
        inputs, outputs = task.inputs, task.outputs
        dplans = plan.device_plans
        # Host overhead, the same on build and replay (caching saves host time).
        ic = node.interconnect
        node.host_advance(
            ic.scheduler_task_overhead
            + ic.scheduler_container_overhead * len(task.containers) * len(active)
        )
        # Pending aggregations first (Algorithm 1 line 17): disjoint
        # consumers get a device-level reduce-scatter, others the host.
        for i, c in enumerate(inputs):
            if monitor.needs_aggregation(c.datum):
                self._resolve_aggregation(c.datum, plan.consumer_rects[i])
        # Step 3, the one allocation pass. A working set that does not fit
        # goes to the pressure hook, which evicts until it fits or returns
        # the device's out-of-core chunk plan (DESIGN.md §10). A bound
        # record's buffers stand in for it while no allocator on the
        # node allocated or freed since: the same LRU touches, in order.
        devices = node.devices
        bound = None
        if rec is not None and rec.plan is plan:
            bound = rec.buffers
            for d, epoch in rec.epochs:
                if devices[d].memory.epoch != epoch:
                    bound = None
                    break
        if bound is not None:
            staged = bound
            for d in active:
                touch = devices[d].memory.touch
                for buf in bound[d]:
                    touch(buf)
            in_core = active
        else:
            staged: dict[int, Any] = {}
            for d in active:
                bufs = self._alloc_task_buffers(task, d)
                staged[d] = (
                    self._pressure.prepare(task, plan, d)
                    if bufs is None else bufs
                )
            in_core = [d for d in active if type(staged[d]) is list]
            if key is not None and plan.memoize and len(in_core) == len(active):
                bounded_put(self._prebound, key, BoundPlan(
                    task if rec is None else rec.task, plan, self._alive,
                    self._weights, staged,
                    tuple((d, devices[d].memory.epoch) for d in active),
                ))
        # Steps 4-5 (lines 3-13): the monitor's copies, on the invoker
        # streams; decisions are memoized per (input, device) when cached.
        kernel_waits: dict[int, list[Event]] = {}
        copy_memo = plan.copy_memo if plan.memoize else None
        for d in in_core:
            dp = dplans[d]
            kernel_waits[d] = waits = []
            for i, (c, req) in enumerate(zip(inputs, dp.input_reqs)):
                for op in self._copy_ops(
                    c.datum, copy_memo, (i, d),
                    (a for _, a in req.pieces), d, dp.peers,
                ):
                    waits.append(self._enqueue_copy(c.datum, op))
            for c, buf in zip(outputs, staged[d][len(inputs):]):
                # WAR: wait for in-flight readers of the previous contents.
                waits.extend(monitor.take_war_events(c.datum, d))
                if c.duplicated:
                    self._enqueue_clear(c.datum, d, buf, waits)
        # Step 6 (lines 14-21): kernels and their completion events; a
        # chunked device replays its chunk pipeline instead.
        durations = self._durations(task, plan)
        race_pool: dict[int, Any] | None = {} if self.sanitize else None
        new_events: list[Event] = []
        dev_events: dict[int, Event] = {}
        name = task.name
        for d in active:
            if d not in in_core:
                done_ev, dev_events[d] = self._pressure.replay_chunked(
                    task, plan, staged[d]
                )
                new_events.append(done_ev)
                continue
            stream = self._compute[d]
            for ev in kernel_waits[d]:
                node.wait_event(stream, ev)
            payload = self._kernel_payload(
                task, d, dplans[d], len(active), race_pool=race_pool
            )
            label = f"{name}@gpu{d}"
            kcmd = node.launch_kernel(stream, durations[d], payload, label=label)
            dev_events[d] = ev = node.record_event(stream, label)
            new_events.append(ev)
            if self._mitigator is not None:
                kcmd.origin = _KernelOrigin(task, plan, d, dev_events)
        # Monitor updates; chunked devices did their own reads and writes.
        for d in in_core:
            for c in inputs:
                monitor.mark_read(c.datum, d, dev_events[d], node.host_time)
        for i, c in enumerate(outputs):
            if c.duplicated:
                monitor.mark_partial(c.datum, c.aggregation, dev_events)
            else:
                for d in in_core:
                    monitor.mark_written(
                        c.datum, d, dplans[d].output_rects[i], dev_events[d]
                    )
        # Only a committed replay touches the handle: an aborted first-time
        # task was never logged; a resubmitted one keeps its old events.
        if handle is None:
            handle = TaskHandle(task, submitted_at=node.host_time)
            self._log.append(handle)
        handle.events[:] = new_events
        if race_pool is not None:
            handle.recorders = race_pool
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

    def _alloc_task_buffers(
        self, task: Task, device: int
    ) -> Optional[list[DeviceBuffer]]:
        """Allocate (or re-touch) every task buffer on a device, inputs
        then outputs — the order FaultPlan nth-allocation numbering
        counts — and return them in that order. None on a genuine
        out-of-memory; an injected allocation failure propagates."""
        buffer = self.analyzer.buffer
        try:
            return [buffer(c.datum, device) for c in (*task.inputs, *task.outputs)]
        except AllocationError as e:
            if e.injected:
                raise
            return None

    # -- helpers -------------------------------------------------------------------
    def _peers(self, device: int) -> list[int]:
        """Preferred copy sources: same-switch *alive* peers first."""
        topo = self.node.topology
        return [
            o for o in self._alive if o != device and topo.same_switch(o, device)
        ]

    def _enqueue_copy(
        self, datum: Datum, op: CopyOp, stream=None, waits=(), factory=None
    ) -> Event:
        """Queue one segment copy on the appropriate copy stream (or an
        explicit ``stream`` — speculation routes its staging and commit
        copies through a dedicated stream), after ``waits``. A payload
        ``factory(op)`` stages a chunk input (DESIGN.md §10): its
        destination is a staging slab, which is not a replica."""
        node = self.node
        if stream is None:
            src = op.src
            stream = self._copy_in[op.dst] if src == HOST else self._copy_out[src]
        for ev in waits:
            node.wait_event(stream, ev)
        if op.wait is not None:
            node.wait_event(stream, op.wait)
        payload = None
        if node.functional:
            payload = factory(op) if factory else self._copy_payload(datum, op)
        kind = "chunk-in" if factory else "copy"
        label = f"{kind}:{datum.name}:{op.src}->{op.dst}"
        cmd = node.memcpy(
            stream, src=op.src, dst=op.dst,
            nbytes=op.actual.size * datum.dtype.itemsize,
            payload=payload, label=label,
        )
        ev = node.record_event(stream, label)
        cmd.origin = _TransferContext(datum, op, ev, payload_factory=factory)
        if factory is None:
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
        self, datum: Datum, device: int, buf: DeviceBuffer,
        waits: list[Event],
    ) -> None:
        """Zero a duplicated output buffer before the kernel accumulates
        into it (device-side memset on the compute stream)."""
        node = self.node
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
            label=f"memset:{datum.name}@gpu{device}",
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
        the conformance checks run after the kernel, adding what they find
        to :attr:`violations`; chunk kernels run without one (DESIGN.md
        §10).
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

            segments = tuple(task.by_container(
                [req.virtual for req in step.input_reqs], step.output_rects
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
                found = self.violations
                found += check_segment(
                    task.name, task.containers, task.grid.shape, recorder
                )
                if len(race_pool) == num_active:
                    found += check_races(
                        task.name, task.containers, task.grid.shape,
                        list(race_pool.values()),
                    )

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
                    capacity = datum.shape[0]
                    for arr, count in ordered:
                        n = int(count or 0)
                        if total + n > capacity:
                            if not self.sanitize:
                                raise DeviceError(
                                    f"dynamic output {datum.name!r}: the "
                                    "devices appended more than its "
                                    f"capacity {capacity}"
                                )
                            # Keep what fits, as the view does; the race
                            # check reports the combined overflow.
                            n = capacity - total
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

    # -- the one fault loop ------------------------------------------------------
    def _drive(self, run):
        """Call ``run()`` until it returns, passing every typed fault it
        surfaces to its hook: a transient transfer fault is retried and a
        permanent device fault recovered from (``core/recovery.py``), a
        straggler alarm mitigated (``core/mitigation.py``). The one fault
        loop behind ``wait``, ``wait_all`` and the eviction drain."""
        while True:
            try:
                return run()
            except TransientTransferError as f:
                recovery.retry_transfer(self, f)
            except StragglerAlarm as a:
                self._mitigator.mitigate(a)
            except DeviceFault as f:
                recovery.recover(self, f.device, f.time)

    # -- paper-style CamelCase aliases ------------------------------------------------
    AnalyzeCall = analyze_call
    Invoke = invoke
    InvokeUnmodified = invoke_unmodified
    Gather = gather
    GatherAsync = gather_async
    Wait = wait
    WaitAll = wait_all

