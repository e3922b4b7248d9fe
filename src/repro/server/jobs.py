"""Job, tenant and quota records of the multi-tenant server (DESIGN.md §13).

A *job* is one tenant's request to run an :class:`~repro.server.workloads.
Workload` on some of the node's GPUs. The server assigns each submission a
unique id (``job-0001``, ...) and tracks it through the state machine::

    PENDING ──> RUNNING ──> DONE
       ^           │
       │           ├──> PREEMPTED ──> (PENDING)      time slice expired
       │           ├──> (PENDING, backoff)           unrecoverable fault
       │           └──> FAILED                       quota / deadline /
       └── CANCELLED (from PENDING or PREEMPTED)     capacity / requeues

Every transition is appended to :attr:`Job.history` with its simulated
time, so tests and the bench can assert the exact sequence of events a
schedule produced (and that two runs produce the same sequence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan

    from repro.server.workloads import Workload

#: Job states (plain strings: they print well in queue tables).
PENDING = "PENDING"
RUNNING = "RUNNING"
PREEMPTED = "PREEMPTED"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource allowances, enforced by admission control and
    at runtime (DESIGN.md §13).

    Attributes:
        max_gpus: Most GPUs a single job may request (``None`` = node
            size).
        max_device_bytes: Per-device memory allowance. Enforced by
            clamping device capacity during the tenant's leases, so the
            §10 pressure ladder (eviction, out-of-core chunking) engages
            below the clamp instead of the job dying; only an irreducible
            footprint fails (``CapacityError``).
        max_sim_time: Total simulated *execution* seconds a job may
            consume across all its leases (queue wait is free). Exceeding
            it kills the job with ``QuotaExceededError``.
        share: Fair-share weight of the tenant (2.0 = entitled to twice
            the GPU-seconds of a share-1.0 tenant under contention).
    """

    max_gpus: Optional[int] = None
    max_device_bytes: Optional[int] = None
    max_sim_time: Optional[float] = None
    share: float = 1.0


@dataclass
class JobSpec:
    """One submission: what to run, for whom, under which constraints.

    Attributes:
        workload: The :class:`~repro.server.workloads.Workload` to run.
            Its host-resident arrays double as the checkpoint.
        tenant: Tenant name (quota and fair-share accounting key).
        name: Human-readable job name for queue listings.
        gpus: Devices requested (``None`` = every GPU of the node).
        priority: Intra-tenant nice value; higher runs earlier among the
            same tenant's jobs. Fair share dominates across tenants.
        deadline: Absolute simulated-time completion deadline (``None`` =
            none). Queue wait counts toward it.
        arrival: Earliest simulated time the job may start (open-loop
            traffic injection for the bench; 0.0 = immediately).
        faults: The tenant's private :class:`FaultPlan`, active only
            during this job's leases (per-tenant fault domain). Times in
            the plan are job-relative.
    """

    workload: "Workload"
    tenant: str = "default"
    name: str = "job"
    gpus: Optional[int] = None
    priority: float = 0.0
    deadline: Optional[float] = None
    arrival: float = 0.0
    faults: "FaultPlan | None" = None


@dataclass
class Job:
    """Server-side record of one submission (returned by ``submit``)."""

    id: str
    spec: JobSpec
    state: str = PENDING
    submit_time: float = 0.0
    #: First time the job ever ran (queue-wait endpoint).
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Simulated execution seconds consumed across all leases.
    sim_time_used: float = 0.0
    #: Cooperative (time-slice) preemptions suffered.
    preemptions: int = 0
    #: Fault-driven requeues suffered (each backs off exponentially).
    requeues: int = 0
    #: Earliest simulated time the job may run again (fault backoff).
    not_before: float = 0.0
    #: ``(sim_time, event)`` transition log, e.g. ``(0.4, "preempted at
    #: iteration 6")`` — the determinism assertions compare these.
    history: list[tuple[float, str]] = field(default_factory=list)
    #: Terminal error (FAILED jobs).
    error: Optional[BaseException] = None
    #: Most recent :class:`~repro.errors.PreemptedError` (control-flow
    #: record, not terminal; the job resumes from its checkpoint).
    last_preemption: Optional[BaseException] = None

    def log(self, time: float, event: str) -> None:
        self.history.append((round(float(time), 9), event))

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds from submission to first run (None if never ran)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def row(self) -> list[str]:
        """One ``mgpu_queue``-style listing row."""
        s = self.spec
        return [
            self.id,
            s.tenant,
            s.name,
            self.state,
            str(s.gpus if s.gpus is not None else "all"),
            f"{self.spec.workload.completed}/{self.spec.workload.iterations}",
            f"{self.sim_time_used:.4g}s",
            str(self.preemptions),
        ]
