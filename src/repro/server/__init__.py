"""Multi-tenant job server over one simulated node (DESIGN.md §13).

Promotes the library into a long-running service: Slurm-like
``submit``/``queue``/``cancel``/``status``, per-tenant quotas and fault
domains, fair-share scheduling with priority aging, and preemptive
checkpoint/requeue that resumes bit-identically.

Quick start::

    from repro.server import JobServer, JobSpec, TenantQuota, GoLWorkload

    srv = JobServer(num_gpus=4, time_slice=2e-4,
                    quotas={"alice": TenantQuota(max_gpus=2)})
    job = srv.submit(JobSpec(GoLWorkload(size=64, iterations=8),
                             tenant="alice", gpus=2))
    srv.run()
    assert srv.status(job.id).state == "DONE"

CLI: ``python -m repro.server`` (see ``--help``) runs a self-verifying
demo scenario or a JSON-described batch, printing ``mgpu_queue``-style
tables.
"""

from repro.server.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    PREEMPTED,
    RUNNING,
    Job,
    JobSpec,
    TenantQuota,
)
from repro.server.server import JobServer, solo_run
from repro.server.workloads import (
    WORKLOADS,
    GoLWorkload,
    HistogramWorkload,
    SgemmWorkload,
    Workload,
)

__all__ = [
    "JobServer",
    "Job",
    "JobSpec",
    "TenantQuota",
    "solo_run",
    "Workload",
    "GoLWorkload",
    "HistogramWorkload",
    "SgemmWorkload",
    "WORKLOADS",
    "PENDING",
    "RUNNING",
    "PREEMPTED",
    "DONE",
    "FAILED",
    "CANCELLED",
]
