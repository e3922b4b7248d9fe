"""Invocation plans: cached host-side scheduling state (§4.3 amortization).

The paper's flagship workloads are iterative — every Game-of-Life tick, NMF
multiplicative update and LeNet batch re-submits a task with the *same*
kernel, containers, grid and device count. The geometry the scheduler
derives for such a task (grid partition, per-device ``required``/``owned``
rects, peer-preference order) is a pure function of that signature, so it
is computed once and replayed on every subsequent ``Invoke``. Only the
residency-dependent part — the Segment Location Monitor's copy planning —
runs per invocation.

A :class:`TaskPlan` is keyed by :func:`task_signature`: kernel identity,
per-container pattern type + parameters + datum shape/dtype, the grid, the
active device tuple and the straggler weights. The key holds no datum
identity: a plan is geometry only, so a Game-of-Life ping-pong is one plan,
and a job server's next lease, job or replica on the same node replays the
plans an earlier one built. Changing any component (a reshaped grid,
another dtype or pattern parameter, another device set) yields a different
key, so stale plans are never replayed. The cache pins the kernel so the
``id()`` in the key cannot be recycled while the plan is cached. An
invoke with no valid bound record (:class:`BoundPlan`) re-runs the
analyzed-box check (:func:`check_plan`) on the plan it looked up.

Every caching scheduler on one ``SimNode`` shares that node's
:class:`NodeTables`: the plans, the call templates, the location
monitor's geometry ids and transitions, and the copy decisions of host
gathers, all geometry-keyed. The plan is the one source of a call's
per-device rects: ``AnalyzeCall`` builds one (:func:`build_plan`, before
any box holds its rects) and the memory analyzer folds its rects into
the boxes. A :class:`CallTemplate` is what ``AnalyzeCall`` learns about
one call shape (:func:`geometry_key`): its kernel, grid and that plan.
A later ``AnalyzeCall`` of that shape over other datums (the job
server's next lease) rebinds it instead of building and validating a
:class:`~repro.core.task.Task`, and its first invoke looks the plan up
by the template plan's signature, storing the template's plan on a
miss. Plan and template tables are bounded by :data:`PLAN_LIMIT`
(oldest evicted first).
``Scheduler(plan_cache=False)`` shares and memoizes nothing.

Plan caching changes *wall-clock* host cost only. Simulated time is
unaffected: the scheduler charges the same modelled host overhead per
invocation whether a plan was replayed or freshly built, and the replayed
command sequence is identical to the one the slow path emits. Cost models
therefore see containers through the key alone: pattern, shape and dtype,
never a datum's contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.patterns.base import Requirement
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.task import Task
    from repro.patterns.base import Container


def container_signature(c: "Container") -> tuple:
    """Stable signature of one container: pattern type + parameters +
    datum shape and dtype (no datum identity: plans are geometry only).

    Pattern parameters are taken from the instance dict (``radius``,
    ``boundary``, ``ilp``, ``op``, ...), so new pattern classes participate
    without registration; an unhashable parameter makes
    :func:`task_signature` raise ``TypeError``.
    """
    params = tuple(
        (k, v) for k, v in sorted(vars(c).items()) if k != "datum"
    )
    return (
        type(c).__qualname__,
        c.datum.shape,
        c.datum.dtype.str,
        params,
    )


def _device_tuple(devices: "int | tuple[int, ...]") -> tuple[int, ...]:
    """Normalize a device-set argument: an int ``n`` means the first ``n``
    devices (the pre-fault convention); a tuple is the explicit alive set.
    Fault recovery shrinks the alive set to an arbitrary subset, so plans
    are keyed by the exact device ids they were built for."""
    if isinstance(devices, int):
        return tuple(range(devices))
    return tuple(devices)


def task_signature(
    task: "Task",
    devices: "int | tuple[int, ...]",
    weights: "tuple[int, ...] | None" = None,
) -> tuple:
    """The plan-cache key for one task submission (see module docstring).
    Raises ``TypeError`` when a pattern parameter is unhashable: the
    invocation then bypasses the cache.

    ``weights`` is the quantized per-device throughput-ratio vector the
    straggler-feedback loop segments by (DESIGN.md §11); it is part of the
    key, so plans built for a different observed ratio are re-keyed, never
    replayed — a plan cached under the even split (``weights=None``) is
    re-hit as soon as the node heals.
    """
    sig = (
        id(task.kernel),
        task.grid.shape,
        task.grid.block0,
        _device_tuple(devices),
        tuple(container_signature(c) for c in task.containers),
    )
    if weights is not None:
        sig += (tuple(weights),)
    hash(sig)
    return sig


def freeze_constants(constants: Mapping[str, Any]) -> tuple | None:
    """Hashable form of a task's constants, or ``None`` if any value is
    unhashable (per-device durations are then recomputed each invocation,
    since cost models may inspect constants)."""
    key = tuple(sorted(constants.items()))
    try:
        hash(key)
    except TypeError:
        return None
    return key


@dataclass(frozen=True)
class DevicePlan:
    """One active device's precomputed share of a task."""

    device: int
    work_rect: Rect
    #: Input requirements, aligned with ``task.inputs``.
    input_reqs: tuple[Requirement, ...]
    #: Owned output rects, aligned with ``task.outputs``.
    output_rects: tuple[Rect, ...]
    #: Preferred peer copy sources (same-switch devices first).
    peers: tuple[int, ...]


@dataclass
class TaskPlan:
    """Everything signature-determined about scheduling one task.

    The plan pins the kernel its signature refers to by identity so
    Python cannot recycle its id while the plan is cached.
    """

    signature: tuple
    kernel: Any
    grid_shape: tuple[int, ...]
    #: The alive device set and straggler weights the grid was split by.
    devices: tuple[int, ...]
    weights: tuple[int, ...] | None
    partition: list[Rect]
    active: tuple[int, ...]
    device_plans: dict[int, DevicePlan]
    #: Per-input consumer rects {device: virtual rect} for the device-level
    #: reduce-scatter path (aligned with ``task.inputs``).
    consumer_rects: tuple[dict[int, Rect], ...]
    #: frozen-constants key -> {device: kernel duration}.
    durations: dict[tuple, dict[int, float]] = field(default_factory=dict)
    #: Memoized location-monitor copy decisions for steady-state replay:
    #: ``(residency fingerprint, (input_index, device)) ->
    #: tuple[(src, src_index, rect), ...]``, kept by
    #: ``Scheduler._copy_ops``. Iterative workloads cycle
    #: through a handful of residency states, so after a warm-up lap every
    #: copy plan is rebuilt from here — the rect algebra of Algorithm 2 is
    #: skipped, only the (per-iteration) producer events are re-read. A
    #: state never seen before falls back to ``compute_copies``, so this is
    #: still "copy computation against current residency", just memoized.
    #: Bounded by ``COPY_MEMO_LIMIT``; exists only while the plan itself is
    #: cached, so the uncached baseline (fresh plan per invocation) cannot
    #: carry decisions across invocations.
    copy_memo: dict[tuple, tuple] = field(default_factory=dict)
    #: Whether to memoize copy decisions: set by the scheduler only when
    #: the plan was actually stored in a cache. A one-shot plan (cache
    #: disabled, or unhashable signature) cannot be replayed, so computing
    #: fingerprints for it would be pure overhead.
    memoize: bool = False
    #: Whether the plan is in a cache table now (cleared when the table
    #: evicts or invalidates it): a pre-bound record replays only a plan
    #: a signature lookup would still find.
    cached: bool = False


#: Upper bound on memoized copy decisions per plan (and in a node's
#: region-gather table). Steady-state iterative workloads need a few
#: entries per (input, device) or gathered region; a workload whose
#: residency never revisits a state stops memoizing here instead of growing
#: the dict unboundedly.
COPY_MEMO_LIMIT = 512

#: Upper bound on the plans (and on the call templates) one node keeps;
#: above it the oldest entry is evicted. Steady workloads need one plan
#: per task shape; a caller that builds a kernel per call mints a new key
#: every time, and would otherwise pin every kernel it ever built.
PLAN_LIMIT = 512


def bounded_put(table: dict, key: Hashable, value: Any) -> None:
    """``table[key] = value``, evicting the oldest entry above
    :data:`PLAN_LIMIT`."""
    table[key] = value
    if len(table) > PLAN_LIMIT:
        del table[next(iter(table))]


class NodeTables:
    """The geometry-keyed memo tables shared by every caching scheduler on
    one ``SimNode`` (see module docstring), so leases, jobs and replicas
    on a node replay what an earlier one built. Hit/miss counters stay on
    each scheduler's :class:`PlanCache` and ``LocationMonitor``."""

    def __init__(self) -> None:
        #: task signature -> plan (:class:`PlanCache`).
        self.plans: dict[tuple, TaskPlan] = {}
        #: :func:`geometry_key` -> :class:`CallTemplate`
        #: (``Scheduler.analyze_call``).
        self.templates: dict[tuple, CallTemplate] = {}
        #: residency geometry -> state id (``LocationMonitor``).
        self.geom_ids: dict[tuple, int] = {}
        #: (state id, op) -> (post state id, template) (``LocationMonitor``).
        self.transitions: dict[tuple, tuple[int, tuple]] = {}
        #: (state id, target rect) -> host-gather copy decisions
        #: (``Scheduler._copy_ops``), bounded by :data:`COPY_MEMO_LIMIT`.
        self.gathers: dict[tuple, tuple] = {}
        #: compiled-call source -> its ``make`` (``core/compiled_call.py``),
        #: bounded by :data:`PLAN_LIMIT`.
        self.calls: dict[str, Any] = {}

    @classmethod
    def of(cls, node) -> "NodeTables":
        """The node's tables, created on first use."""
        tables = node.plan_tables
        if tables is None:
            tables = node.plan_tables = cls()
        return tables


def build_plan(task: "Task", devices: "int | tuple[int, ...]", analyzer=None,
               peers_of=None, weights=None, signature=None) -> TaskPlan:
    """Compute a task's invocation plan (the slow path, run once per
    signature, and the source of the rects ``AnalyzeCall`` folds).

    ``devices`` is the alive device set the work is segmented across (an
    int means the first N devices). Pure geometry: partitions the grid and
    evaluates every container's ``required``/``owned`` rects per active
    device. With ``weights`` (the quantized observed-throughput ratio
    vector, aligned with ``devices``), the grid is split proportionally
    instead of evenly — the ratio-aware segmenter of the straggler
    feedback loop (DESIGN.md §11). When ``analyzer`` is given, the plan is
    validated against the task's analyzed boxes (:func:`check_plan`).
    ``signature`` is the task's, when the caller has it; ``()`` for a plan
    no table will store. No commands are enqueued and no monitor state is
    touched.
    """
    devices = _device_tuple(devices)
    if signature is None:
        try:
            signature = task_signature(task, devices, weights)
        except TypeError:
            signature = ()  # plan still usable once; callers won't store it
    if weights is None:
        partition = task.grid.partition(len(devices))
    else:
        partition = task.grid.partition_weighted(weights)
    active = tuple(
        d for d, w in zip(devices, partition) if not w.empty
    )
    work_rects = dict(zip(devices, partition))
    device_plans: dict[int, DevicePlan] = {}
    inputs = task.inputs
    outputs = task.outputs
    work_shape = task.grid.shape
    for d in active:
        w = work_rects[d]
        device_plans[d] = DevicePlan(
            device=d,
            work_rect=w,
            input_reqs=tuple(c.required(work_shape, w) for c in inputs),
            output_rects=tuple(c.owned(work_shape, w) for c in outputs),
            peers=tuple(peers_of(d)) if peers_of is not None else (),
        )
    consumer_rects = tuple(
        {d: device_plans[d].input_reqs[i].virtual for d in active}
        for i in range(len(inputs))
    )
    plan = TaskPlan(
        signature=signature,
        kernel=task.kernel,
        grid_shape=work_shape,
        devices=devices,
        weights=weights,
        partition=partition,
        active=active,
        device_plans=device_plans,
        consumer_rects=consumer_rects,
    )
    if analyzer is not None:
        check_plan(task, plan, analyzer)
    return plan


def check_plan(task: "Task", plan: TaskPlan, analyzer) -> None:
    """Validate every rect of ``plan`` against the analyzed allocation
    boxes of ``task``'s datums (``check_within``), so replays can skip
    re-validation. A plan is geometry only, so this runs for every invoke
    that has no valid bound record (:class:`BoundPlan`)."""
    inputs = task.inputs
    outputs = task.outputs
    for d in plan.active:
        dp = plan.device_plans[d]
        for c, req in zip(inputs, dp.input_reqs):
            analyzer.check_within(c.datum, d, req.virtual)
        for c, rect in zip(outputs, dp.output_rects):
            analyzer.check_within(c.datum, d, rect)


def prekey(kernel: Any, containers: tuple, grid: Any) -> tuple:
    """The cheap key of one submission, built before its :class:`Task`:
    the kernel, each container's type and instance dict (its datum by
    identity, its pattern parameters by value) and the grid argument.
    Containers are fresh objects per call, so their identity would never
    repeat; their dicts are read in insertion order, without the sort
    :func:`container_signature` does. Raises ``TypeError`` when a
    parameter is unhashable. The key holds the datums themselves, so it
    never matches a later datum that reuses a dropped one's ``id``."""
    key = (
        id(kernel),
        None if grid is None else (grid.shape, grid.block0),
        *[(type(c), *vars(c).items()) for c in containers],
    )
    hash(key)
    return key


def geometry_key(
    kernel: Any, containers: tuple, grid: Any,
    devices: tuple[int, ...], weights: "tuple[int, ...] | None",
) -> tuple:
    """The key of one call shape in :attr:`NodeTables.templates`: built
    like :func:`prekey`, but with each container's datum replaced by its
    shape and dtype, and with the alive ``devices`` and straggler
    ``weights`` the call is analyzed under. It holds no datum, so it
    matches a later call over other datums of the same geometry. Raises
    ``TypeError`` when a parameter is unhashable."""
    key = (
        id(kernel),
        None if grid is None else (grid.shape, grid.block0),
        devices,
        weights,
        *[
            (type(c), *[
                (k, (v.shape, v.dtype.str)) if k == "datum" else (k, v)
                for k, v in vars(c).items()
            ])
            for c in containers
        ],
    )
    hash(key)
    return key


@dataclass(frozen=True, slots=True)
class CallTemplate:
    """What ``AnalyzeCall`` derives from one call shape
    (:func:`geometry_key`), kept per node without any datum: the kernel
    and grid a :meth:`~repro.core.task.Task.rebind` needs, and the
    ``plan`` built at analysis, whose rects the memory analyzer folds
    into the new datums' boxes and whose signature, alive set and
    weights an invoke looks its plan up by.

    A task over containers of the same types, parameters, datum shapes
    and dtypes passes the same checks and implies the same grid as the
    task the template was made from, so rebinding skips them. The
    template pins the kernel, so the ``id()`` in its key stays unique."""

    kernel: Any
    grid: Any
    plan: TaskPlan


def store_template(
    templates: dict, key: tuple, task: "Task", devices: tuple[int, ...],
    weights: "tuple[int, ...] | None", peers_of,
) -> CallTemplate:
    """Make the template of ``task`` analyzed under ``devices`` and
    ``weights`` and store it under its :func:`geometry_key` ``key``. The
    key hashed every parameter, so the plan's signature is cacheable."""
    template = CallTemplate(
        task.kernel, task.grid,
        build_plan(task, devices, peers_of=peers_of, weights=weights),
    )
    bounded_put(templates, key, template)
    return template


@dataclass(eq=False, slots=True)
class BoundPlan:
    """A plan bound to one submission's datums (DESIGN.md §7): what a
    steady invoke under the same :func:`prekey` would otherwise recompute.

    ``task`` is the task of the submission that made the record (later
    ones are its :meth:`Task.rebind`); ``buffers`` are each active device's
    buffers in allocation-pass order, valid while every device's
    allocator ``epoch`` equals ``epochs``; ``devices``/``weights`` are the
    alive set and straggler weights the plan was looked up under.
    ``calls`` holds the record's compiled calls (DESIGN.md §7) per
    constants key and geometry state tuple, and ``states`` its datums'
    monitor states, once a call looked them up.
    """

    task: Any
    plan: TaskPlan
    devices: tuple[int, ...]
    weights: tuple[int, ...] | None
    buffers: dict[int, list]
    epochs: tuple[tuple[int, int], ...]
    calls: dict = field(default_factory=dict)
    states: list | None = None


def binding(task: "Task", plan: TaskPlan) -> tuple:
    """One binding of datums to a plan: ``(signature, datum ids)``. A
    plan is geometry only, so per-datum state is keyed by its binding."""
    return (plan.signature, tuple([id(c.datum) for c in task.containers]))


@dataclass(frozen=True)
class ChunkStep:
    """One sub-segment of a device's work under out-of-core replay."""

    work_rect: Rect
    #: Input requirements for this chunk, aligned with ``task.inputs``.
    input_reqs: tuple[Requirement, ...]
    #: Owned output rects for this chunk, aligned with ``task.outputs``.
    output_rects: tuple[Rect, ...]


@dataclass
class ChunkPlan:
    """Out-of-core execution plan for one device (DESIGN.md §10 stage 2).

    The device's block range is split along the outermost grid dimension
    into ``num_chunks`` block-aligned sub-segments whose staging footprint
    fits the byte budget the escalation left free. Staging uses fixed
    *slot pools*: ``slots`` interchangeable buffers per rotating container
    (2 = double-buffered, overlapping chunk i's copy-out with chunk i+1's
    compute on the dual copy engines; 1 = serialized fallback), plus one
    buffer per chunk-invariant ("persistent") input that is copied in once.
    Duplicated outputs are not staged at all — they accumulate across
    chunks in the analyzer's regular per-device buffer.
    """

    device: int
    num_chunks: int
    slots: int
    steps: tuple[ChunkStep, ...]
    #: Aligned with ``task.inputs``: True = chunk-invariant, copied once.
    persistent_in: tuple[bool, ...]
    #: Aligned with ``task.inputs``: pool shape (per-dim max over chunks
    #: for rotating inputs; the invariant box for persistent ones).
    in_pool_shapes: tuple[tuple[int, ...], ...]
    #: Aligned with ``task.outputs``: pool shape, or None for duplicated
    #: outputs (they live in the analyzer's buffer, outside the pools).
    out_pool_shapes: tuple[tuple[int, ...] | None, ...]
    #: Total staging bytes: persistent pools + slots x rotating set.
    footprint: int


def _split_chunks(work_rect: Rect, block0: int, k: int) -> list[Rect]:
    """Split ``work_rect`` along dim 0 into ``k`` block-aligned pieces.

    Block rows are distributed as evenly as possible (first ``nb % k``
    chunks get one extra row of blocks); every boundary except the last is
    a multiple of ``block0`` from the rect's start, matching how
    ``Grid.partition`` aligns device boundaries.
    """
    lo, hi = work_rect[0].begin, work_rect[0].end
    nb = -((lo - hi) // block0)  # ceil((hi - lo) / block0)
    base, extra = divmod(nb, k)
    out: list[Rect] = []
    cursor = lo
    for j in range(k):
        rows = base + (1 if j < extra else 0)
        end = min(cursor + rows * block0, hi)
        out.append(Rect((cursor, end), *work_rect.intervals[1:]))
        cursor = end
    return out


def build_chunk_plan(
    task: "Task",
    device: int,
    work_rect: Rect,
    budget: int,
    capacity: int,
) -> ChunkPlan:
    """Find the smallest chunk count whose staging footprint fits ``budget``.

    Tries K = 2, 4, 8, ... up to one chunk per block row, preferring 2
    staging slots (double-buffered pipeline) and falling back to 1 before
    growing K further. Raises :class:`~repro.errors.CapacityError` — naming
    the datum that dominates the irreducible footprint — when even maximal
    chunking with a single slot does not fit.
    """
    from repro.errors import CapacityError

    inputs = task.inputs
    outputs = task.outputs
    work_shape = task.grid.shape
    block0 = task.grid.block0
    lo, hi = work_rect[0].begin, work_rect[0].end
    nb = -((lo - hi) // block0)

    def measure(k: int):
        steps = []
        for rect in _split_chunks(work_rect, block0, k):
            reqs = tuple(c.required(work_shape, rect) for c in inputs)
            owned = tuple(c.owned(work_shape, rect) for c in outputs)
            steps.append(ChunkStep(rect, reqs, owned))
        persistent = tuple(
            all(
                s.input_reqs[i].virtual == steps[0].input_reqs[i].virtual
                for s in steps
            )
            for i in range(len(inputs))
        )
        in_shapes = []
        contrib: list[tuple[int, str]] = []  # (bytes toward footprint, name)
        persistent_bytes = 0
        per_set = 0
        for i, c in enumerate(inputs):
            shape = tuple(
                max(s.input_reqs[i].virtual.shape[d] for s in steps)
                for d in range(c.datum.ndim)
            )
            in_shapes.append(shape)
            nbytes = 1
            for n in shape:
                nbytes *= n
            nbytes *= c.datum.dtype.itemsize
            if persistent[i]:
                persistent_bytes += nbytes
                contrib.append((nbytes, c.datum.name))
            else:
                per_set += nbytes
                contrib.append((nbytes, c.datum.name))
        out_shapes: list[tuple[int, ...] | None] = []
        for j, c in enumerate(outputs):
            if c.duplicated:
                out_shapes.append(None)  # analyzer buffer, not staged
                continue
            shape = tuple(
                max(s.output_rects[j].shape[d] for s in steps)
                for d in range(c.datum.ndim)
            )
            out_shapes.append(shape)
            nbytes = 1
            for n in shape:
                nbytes *= n
            nbytes *= c.datum.dtype.itemsize
            per_set += nbytes
            contrib.append((nbytes, c.datum.name))
        return steps, persistent, in_shapes, out_shapes, \
            persistent_bytes, per_set, contrib

    ks: list[int] = []
    k = 2
    while k < nb:
        ks.append(k)
        k *= 2
    if nb >= 2:
        ks.append(nb)
    else:
        # A single block row cannot be split further; measure it anyway so
        # the CapacityError reports the true irreducible floor.
        ks.append(1)
    best_floor = None
    for k in ks:
        (steps, persistent, in_shapes, out_shapes,
         persistent_bytes, per_set, contrib) = measure(k)
        for slots in (2, 1):
            eff_slots = min(slots, k)
            footprint = persistent_bytes + eff_slots * per_set
            if footprint <= budget:
                return ChunkPlan(
                    device=device,
                    num_chunks=k,
                    slots=eff_slots,
                    steps=tuple(steps),
                    persistent_in=persistent,
                    in_pool_shapes=tuple(in_shapes),
                    out_pool_shapes=tuple(out_shapes),
                    footprint=footprint,
                )
        if k == ks[-1]:
            best_floor = (persistent_bytes + per_set, contrib)
    required, contrib = best_floor if best_floor is not None else (0, [])
    worst = max(contrib, default=(0, "?"))
    raise CapacityError(
        f"device {device}: irreducible out-of-core footprint {required} B "
        f"exceeds budget {budget} B (capacity {capacity} B); dominated by "
        f"datum {worst[1]!r} ({worst[0]} B per chunk)",
        datum=worst[1],
        required=required,
        capacity=capacity,
        device=device,
    )


class PlanCache:
    """Signature-keyed store of :class:`TaskPlan` objects, with one
    scheduler's hit/miss counters.

    ``plans`` is the backing dict — the node's shared ``NodeTables.plans``
    for a caching scheduler, a private one by default. ``enabled=False``
    turns the scheduler into the uncached baseline: every invocation
    rebuilds its plan from scratch (and nothing is stored), which is what
    ``python -m repro.bench --overhead`` measures against.
    """

    def __init__(self, enabled: bool = True,
                 plans: dict[tuple, TaskPlan] | None = None):
        self.enabled = enabled
        self._plans: dict[tuple, TaskPlan] = {} if plans is None else plans
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        #: Invocations satisfied by iteration-graph replay (DESIGN.md §12)
        #: without even a cache lookup — the macro-command fast path.
        self.graph_hits = 0

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(
        self,
        task: "Task",
        devices: "int | tuple[int, ...]",
        weights: "tuple[int, ...] | None" = None,
        signature: tuple | None = None,
    ) -> TaskPlan | None:
        """The cached plan for ``task``'s signature, or None. A caller
        that holds the signature already (a :class:`CallTemplate` plan's,
        for the same ``devices`` and ``weights``) passes it as
        ``signature``, and none is computed."""
        if not self.enabled:
            self.misses += 1
            return None
        key = signature
        if key is None:
            try:
                key = task_signature(task, devices, weights)
            except TypeError:
                self.bypasses += 1
                return None
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        return plan

    def hit(self, plan: TaskPlan) -> TaskPlan:
        """Count a lookup a pre-bound record answered (``BoundPlan``)."""
        self.hits += 1
        return plan

    def store(self, plan: TaskPlan) -> None:
        if self.enabled and plan.signature:
            table = self._plans
            old = table.get(plan.signature)
            if old is not None:
                old.cached = False
            table[plan.signature] = plan
            if len(table) > PLAN_LIMIT:
                table.pop(next(iter(table))).cached = False
            plan.memoize = plan.cached = True

    def invalidate_device(self, device: int) -> int:
        """Drop every plan that segments work onto ``device`` (fault
        recovery retired it; the device tuple in the key already keeps
        those plans from being replayed, so this only frees them). Returns
        the number of plans dropped."""
        doomed = [
            key for key, plan in self._plans.items()
            if device in plan.active
        ]
        for key in doomed:
            self._plans.pop(key).cached = False
        return len(doomed)

    @property
    def stats(self) -> dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "graph_hits": self.graph_hits,
        }
