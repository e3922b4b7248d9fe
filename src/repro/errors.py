"""Exception hierarchy for the MAPS-Multi reproduction.

The paper notes (§4.2) that the framework performs error checking in the
memory analyzer and raises runtime errors when programmer-provided access
patterns do not match task invocation parameters; these exceptions make
those failure modes explicit and testable.

The fault taxonomy (DESIGN.md §8) extends the hierarchy with *injected*
hardware failures: :class:`DeviceFault` is what the discrete-event engine
surfaces when a :class:`~repro.sim.faults.FaultPlan` fails a command, its
subclass :class:`TransientTransferError` marks the retryable case, and
:class:`UnrecoverableError` is the scheduler's verdict that no valid
replica of a needed segment survives the failure.
"""

from __future__ import annotations


class MapsError(Exception):
    """Base class for all framework errors."""


class PatternMismatchError(MapsError):
    """Access pattern incompatible with the datum or task it is applied to."""


class AnalysisError(MapsError):
    """A task was invoked without a prior matching ``AnalyzeCall`` (§4.2)."""


class AllocationError(MapsError):
    """Device memory allocation failed (out of memory, bad size).

    Attributes:
        device: Device index the allocation targeted (``None`` if unknown).
        injected: True when a :class:`~repro.sim.faults.FaultPlan` injected
            the failure (the scheduler then retires the device and
            re-segments its work); genuine capacity overflows propagate.
    """

    def __init__(
        self,
        message: str,
        device: int | None = None,
        injected: bool = False,
    ):
        super().__init__(message)
        self.device = device
        self.injected = injected


class CapacityError(AllocationError):
    """Device memory is oversubscribed beyond what graceful degradation can
    absorb (DESIGN.md §10).

    Raised only after the escalation ladder is exhausted: replica eviction
    could not make room and even maximal chunking (one thread-block row
    group per chunk) leaves an irreducible footprint — e.g. a full
    Traversal/``Block2DTransposed`` input every chunk must hold — that
    exceeds the device's capacity.

    Attributes:
        datum: Name of the datum dominating the irreducible footprint.
        required: Smallest achievable footprint in bytes (staging for the
            most aggressive chunking that is still semantically possible).
        capacity: The device's total memory capacity in bytes.
        device: Device index (inherited from :class:`AllocationError`).
    """

    def __init__(
        self,
        message: str,
        datum: str | None = None,
        required: int = 0,
        capacity: int = 0,
        device: int | None = None,
    ):
        super().__init__(message, device=device, injected=False)
        self.datum = datum
        self.required = required
        self.capacity = capacity


class SchedulingError(MapsError):
    """Scheduler invariant violated (bad task, unknown handle, ...)."""


class GraphCaptureError(SchedulingError):
    """Iteration-graph capture misuse (DESIGN.md §12): nested captures,
    captures without the plan cache, or a synchronizing or host-side call
    (``wait``/``wait_all``/``analyze_call``/host-dirty marking, or a gather
    that must aggregate partials) issued while a capture is recording."""


class SimulationError(MapsError):
    """Discrete-event simulator invariant violated (deadlock, bad command)."""


class DeadlockError(SimulationError):
    """Queued commands can never execute: streams blocked on events that
    will never be recorded."""


class DeviceError(SimulationError):
    """Invalid device operation (bad stream, unallocated buffer, ...)."""


class DeviceFault(SimulationError):
    """An injected hardware fault hit a command at dispatch (DESIGN.md §8).

    Raised by the engine *before* the command's functional payload runs, so
    device state is never corrupted — the command simply did not happen.
    The scheduler catches this and runs its recovery path.

    Attributes:
        device: The faulty device index.
        time: Simulated time at which the fault was detected (the failed
            command's would-be start time).
        command: The command object that was about to dispatch (already
            popped from its stream).
        stream: The stream the command was popped from.
        kind: Fault category (``"device-failure"``, ``"transfer"``, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        device: int | None = None,
        time: float = 0.0,
        command=None,
        stream=None,
        kind: str = "device-failure",
    ):
        super().__init__(message)
        self.device = device
        self.time = time
        self.command = command
        self.stream = stream
        self.kind = kind


class TransientTransferError(DeviceFault):
    """A D2D/H2D/D2H copy errored transiently; the transfer may be retried
    (from an alternate valid replica, with backoff in simulated time)."""

    def __init__(self, message: str, **kwargs):
        kwargs.setdefault("kind", "transfer")
        super().__init__(message, **kwargs)


class StragglerAlarm(SimulationError):
    """The progress watchdog fired: a command's projected completion
    exceeds ``patience`` times its calibrated duration (DESIGN.md §11).

    Raised by the engine at dispatch, *before* the command's functional
    payload runs — like :class:`DeviceFault`, the command is popped and
    nothing else has moved, so the scheduler can mitigate (speculatively
    re-execute the segment elsewhere, hedge the transfer from an alternate
    replica, or simply re-queue the command and pay the slowdown) and call
    the engine again. Only ever raised when the fault plan enables
    mitigation (``FaultPlan.mitigate_stragglers``); it never escapes the
    scheduler's wait loops.

    Attributes:
        device: The lagging device.
        time: The watchdog deadline, ``start + patience * nominal`` —
            mitigation actions cannot begin before this simulated time.
        start: The command's would-be dispatch time.
        nominal: The command's calibrated (un-stretched) duration.
        projected_end: ``start + stretched duration`` — when the command
            would complete if left alone (the watchdog's throughput
            estimate of the degraded device, exact in simulation).
        command: The command that was about to dispatch (already popped).
        stream: The stream it was popped from.
        kind: ``"kernel"`` or ``"transfer"``.
    """

    def __init__(
        self,
        message: str,
        *,
        device: int | None = None,
        time: float = 0.0,
        start: float = 0.0,
        nominal: float = 0.0,
        projected_end: float = 0.0,
        command=None,
        stream=None,
        kind: str = "kernel",
    ):
        super().__init__(message)
        self.device = device
        self.time = time
        self.start = start
        self.nominal = nominal
        self.projected_end = projected_end
        self.command = command
        self.stream = stream
        self.kind = kind


class StragglerTimeoutError(SimulationError):
    """Straggler mitigation gave up on a transfer stuck behind a degraded
    link: no alternate replica/route exists and the straggler budget
    (``FaultPlan.max_speculations``) is exhausted (DESIGN.md §11). The
    application should treat this like an unrecoverable timeout.

    Attributes:
        device: The degraded device the transfer was pinned to.
        time: Simulated time of the watchdog deadline that gave up.
    """

    def __init__(
        self, message: str, device: int | None = None, time: float = 0.0
    ):
        super().__init__(message)
        self.device = device
        self.time = time


class UnrecoverableError(MapsError):
    """Fault recovery is impossible: no valid replica of a needed segment
    survives (or the last device failed). The application must restart
    from its own checkpoint."""


class NodeFailure(SimulationError):
    """A whole multi-GPU node failed at the cluster level (DESIGN.md §15).

    Raised conceptually by the cluster master's failure detector when a
    node is declared dead: it crashed (fail-stop — its host and device
    memory are gone), stopped answering heartbeats, or its agent reported
    an intra-node :class:`UnrecoverableError` (every GPU in the node
    retired — the node-level fault domain escalation). Recorded in
    :attr:`ClusterMaster.events <repro.cluster.ClusterMaster>`; escapes
    to applications only as the ``__cause__`` of a
    :class:`ClusterRecoveryError` when the cluster cannot recover.

    Attributes:
        node: The failed node's id.
        time: Cluster time at which the failure detector declared it dead
            (>= the actual crash time by the detection latency).
        cause: ``"crash"``, ``"unreachable"``, ``"agent-error"`` or
            ``"flapping"`` (the :class:`NodeBannedError` subclass).
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        time: float = 0.0,
        cause: str = "crash",
    ):
        super().__init__(message)
        self.node = node
        self.time = time
        self.cause = cause


class NodeBannedError(NodeFailure):
    """A repaired node flapped too often and is permanently banned from
    re-admission (DESIGN.md §15, elastic membership).

    Every crash→repair cycle counts as a *flap*; a node announcing its
    repair after more than ``ClusterFaultPlan.max_flaps`` flaps is marked
    ``"banned"`` instead of entering probation — flap damping keeps an
    unstable machine from repeatedly triggering probation, re-replication
    and re-slab churn. Recorded as the ``"ban"`` entry of the master's
    event log (:attr:`ClusterMaster.log <repro.cluster.ClusterMaster>`);
    like any detected failure it does not escape to applications on its
    own.

    Attributes:
        flaps: Crash→repair cycles observed when the ban was imposed.
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        time: float = 0.0,
        flaps: int = 0,
    ):
        super().__init__(message, node=node, time=time, cause="flapping")
        self.flaps = flaps


class LinkError(SimulationError):
    """An inter-node message exhausted its retry budget on a faulty
    fabric link (DESIGN.md §15).

    Every send is retried with capped-exponential backoff in simulated
    time (:meth:`ClusterFaultPlan.backoff
    <repro.cluster.faults.ClusterFaultPlan>`); this error means
    ``max_retries`` consecutive attempts failed while both endpoints
    were alive and unpartitioned — a persistently bad link/NIC.

    Attributes:
        src: Sending node.
        dst: Receiving node.
        time: Cluster time when the last attempt was given up.
        attempts: Number of attempts made (``max_retries + 1``).
    """

    def __init__(
        self,
        message: str,
        src: int | None = None,
        dst: int | None = None,
        time: float = 0.0,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.time = time
        self.attempts = attempts


class PartitionError(LinkError):
    """A network partition separates two nodes (DESIGN.md §15): the
    message failed not because the link is bad but because the fabric is
    split into disconnected groups. Nodes the master cannot reach are
    *fenced* — excluded from the cluster so a stale minority can never
    write back into the board. A fenced node rejoins only through the
    elastic-membership probation protocol after a
    :class:`~repro.cluster.faults.NodeRepair` event; with no repair
    scheduled, fencing is permanent.

    Attributes:
        isolated: The node group cut off from the master's side
            (the minority being fenced), when known.
    """

    def __init__(
        self,
        message: str,
        isolated: "tuple[int, ...]" = (),
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.isolated = tuple(isolated)


class ClusterRecoveryError(UnrecoverableError):
    """Cluster-level recovery is impossible (DESIGN.md §15): no surviving
    node holds a checkpoint replica of some board region, the master's
    side of a partition lost its quorum (a split-brain the fencing rule
    refuses to resolve), no nodes survive at all, or the recovered state
    failed the ghost-replica integrity cross-check. Subclasses
    :class:`UnrecoverableError` deliberately — the application-facing
    contract is the same: restart from your own checkpoint.

    Attributes:
        reason: Machine-readable category (``"no-survivors"``,
            ``"no-quorum"``, ``"checkpoint-lost"``, ``"ghost-mismatch"``,
            ``"thrashing"``).
        time: Cluster time at which recovery was abandoned.
    """

    def __init__(
        self, message: str, reason: str = "", time: float = 0.0
    ):
        super().__init__(message)
        self.reason = reason
        self.time = time


class QuotaExceededError(MapsError):
    """A job violated its tenant's resource quota (DESIGN.md §13).

    Raised by the job server at *admission* when a submission can never
    fit its tenant's allowance (GPU count, irreducible per-device memory
    footprint, declared time limit), or at *runtime* when a running job's
    accumulated simulated execution time crosses ``max_sim_time``.

    Deliberately **not** a subclass of :class:`AllocationError`: the
    memory-pressure escalation ladder (DESIGN.md §10) catches
    ``AllocationError`` to degrade gracefully, and a quota verdict must
    terminate the job rather than be absorbed by eviction or chunking.
    (Memory quotas are instead enforced by clamping device capacity for
    the tenant's lease, so the ladder *does* engage below the clamp.)

    Attributes:
        tenant: Tenant whose quota was violated.
        resource: ``"gpus"``, ``"device-memory"`` or ``"sim-time"``.
        requested: Amount the job asked for / consumed.
        limit: The tenant's allowance for the resource.
    """

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        resource: str | None = None,
        requested: float = 0.0,
        limit: float = 0.0,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.resource = resource
        self.requested = requested
        self.limit = limit


class DeadlineExceededError(MapsError):
    """A job missed its absolute completion deadline (DESIGN.md §13).

    Deadlines are checked at checkpoint boundaries against the server's
    simulated clock, so queue wait counts toward the deadline — a job
    starved past its deadline fails exactly like one that ran too long.

    Attributes:
        job_id: The killed job.
        deadline: The absolute simulated-time deadline.
        now: Simulated time when the miss was detected.
    """

    def __init__(
        self,
        message: str,
        job_id: str | None = None,
        deadline: float = 0.0,
        now: float = 0.0,
    ):
        super().__init__(message)
        self.job_id = job_id
        self.deadline = deadline
        self.now = now


class PreemptedError(MapsError):
    """A job was preempted at a checkpoint boundary (DESIGN.md §13).

    Control-flow signal of the job server's time slicing, recorded in the
    job's history: the job's host-resident checkpoint is complete, its
    lease was torn down, and the job was requeued to resume from the last
    completed iteration. It only escapes to applications that drive a
    :class:`~repro.server.JobServer` manually and ask it to.

    Attributes:
        job_id: The preempted job.
        at_iteration: Iterations completed when the job yielded.
        time: Simulated time of the preemption.
    """

    def __init__(
        self,
        message: str,
        job_id: str | None = None,
        at_iteration: int = 0,
        time: float = 0.0,
    ):
        super().__init__(message)
        self.job_id = job_id
        self.at_iteration = at_iteration
        self.time = time
