"""Differential test of the job server's queue indexes.

:class:`ScanJobServer` keeps the original linear-scan implementations of
``_pick``, ``_expire_dead_jobs``, ``_next_eligibility`` and
``_others_waiting``, which read every job ever submitted on every step.
Seeded traces drive it and the indexed :class:`JobServer` through the
same submissions, steps and cancellations; every return value, job
history and tenant's usage must match exactly. A second test counts
``_score`` calls to pin the per-lease cost of a pick to the number of
ready groups, independent of how many jobs were ever submitted.
"""

import random
from typing import Optional

import numpy as np
import pytest

from repro.errors import DeadlineExceededError
from repro.server import (
    PENDING,
    PREEMPTED,
    GoLWorkload,
    Job,
    JobServer,
    JobSpec,
    TenantQuota,
    Workload,
)
from repro.sim import DeviceFailure, FaultPlan

from .test_regressions import NoOpWorkload


class ScanJobServer(JobServer):
    """The job server as it was before its queue was indexed: each
    lookup scans ``self.jobs``."""

    def _eligible(self, job: Job, now: float) -> bool:
        return (
            job.state in (PENDING, PREEMPTED)
            and job.spec.arrival <= now
            and job.not_before <= now
        )

    def _expire_dead_jobs(self) -> None:
        now = self.node.time
        for job in self.jobs.values():
            if (
                job.state in (PENDING, PREEMPTED)
                and job.spec.deadline is not None
                and now > job.spec.deadline
            ):
                e = DeadlineExceededError(
                    f"job {job.id} deadline t={job.spec.deadline:.6g} "
                    f"expired before it could start (now t={now:.6g})",
                    job_id=job.id,
                    deadline=job.spec.deadline,
                    now=now,
                )
                self._fail(
                    job,
                    e,
                    f"deadline t={job.spec.deadline:.6g} expired while "
                    f"queued",
                )

    def _pick(self) -> Optional[Job]:
        now = self.node.time
        candidates = [j for j in self.jobs.values() if self._eligible(j, now)]
        if not candidates:
            return None
        return min(candidates, key=lambda j: self._score(j, now))

    def _next_eligibility(self) -> Optional[float]:
        times = [
            max(j.spec.arrival, j.not_before)
            for j in self.jobs.values()
            if j.state in (PENDING, PREEMPTED)
        ]
        return min(times) if times else None

    def _others_waiting(self, job: Job) -> bool:
        now = self.node.time
        return any(
            self._eligible(j, now) for j in self.jobs.values() if j is not job
        )


class SleepWorkload(Workload):
    """Holds the node for ``dt`` simulated seconds per iteration without
    touching a device, so long traces stay cheap."""

    kind = "sleep"

    def __init__(self, iterations, dt):
        super().__init__(iterations)
        self.dt = dt

    def bind(self, sched):
        pass

    def run_chunk(self, sched):
        sched.node.host_advance(self.dt)
        self.completed += 1
        return 1

    def result(self):
        return np.asarray([self.completed])


TENANTS = ("a", "b", "c")
QUOTAS = {"a": TenantQuota(share=2.0), "c": TenantQuota(share=0.5)}


def doomed():
    return FaultPlan(
        device_failures=[DeviceFailure(0, 1e-6), DeviceFailure(1, 1e-6)]
    )


def random_spec(rng: random.Random, now: float, i: int) -> JobSpec:
    """One submission: tenant, priority, arrival (often out of order or
    already past), and deadline drawn from ``rng``."""
    # Out-of-order stamps: some arrive in the past, some far ahead.
    arrival = max(0.0, now + rng.uniform(-2e-3, 4e-3))
    deadline = None
    if rng.random() < 0.3:
        deadline = arrival + rng.uniform(0.0, 4e-3)
    if rng.random() < 0.08:
        # The only device-touching jobs: both leased GPUs fail-stop, so
        # the lease dies and the job requeues with backoff.
        wl = GoLWorkload(size=8, iterations=2, seed=i)
        return JobSpec(wl, tenant=rng.choice(TENANTS), name=f"f{i}",
                       gpus=2, arrival=arrival, deadline=deadline,
                       faults=doomed())
    wl = SleepWorkload(rng.randint(1, 6), rng.choice((1e-4, 2.5e-4, 6e-4)))
    return JobSpec(
        wl,
        tenant=rng.choice(TENANTS),
        name=f"j{i}",
        gpus=rng.choice((1, 2)),
        # Mixed priorities within a tenant, some of them small enough to
        # interleave with usage and aging.
        priority=rng.choice((0.0, 0.0, 1e-4, 5e-4, 1.0)),
        arrival=arrival,
        deadline=deadline,
    )


def drive(srv: JobServer, seed: int, actions: int = 400) -> list:
    """Apply one seeded action sequence; return every observable result
    in order. Both servers see identical calls, since each action depends
    only on the seed and on results already required to match."""
    rng = random.Random(seed)
    out = []
    submitted = 0
    for _ in range(actions):
        r = rng.random()
        if r < 0.35:
            for _ in range(rng.randint(1, 4)):
                job = srv.submit(random_spec(rng, srv.node.time, submitted))
                submitted += 1
                out.append(("submit", job.id, job.submit_time))
        elif r < 0.65:
            job = srv.step()
            out.append(("step", job.id if job else None, srv.node.time))
        elif r < 0.9:
            horizon = srv.node.time + rng.uniform(0.0, 2e-3)
            ran = srv.step_until(horizon)
            out.append(("until", [j.id for j in ran], srv.node.time))
        else:
            queued = [
                j.id for j in srv.jobs.values()
                if j.state in (PENDING, PREEMPTED)
            ]
            if queued:
                job_id = rng.choice(queued)
                out.append(("cancel", job_id, srv.cancel(job_id).state))
    srv.run()
    out.append(("drained", srv.node.time))
    return out


def snapshot(srv: JobServer) -> tuple:
    jobs = [
        (j.id, j.state, j.history, j.start_time, j.end_time,
         j.sim_time_used, j.preemptions, j.requeues)
        for j in srv.jobs.values()
    ]
    return jobs, sorted(srv.tenant_usage.items())


@pytest.mark.parametrize("aging_rate", [0.0, 0.1, 5.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indexed_server_matches_scan_oracle(seed, aging_rate):
    kw = dict(num_gpus=2, time_slice=3e-4, quotas=QUOTAS)
    fast, scan = JobServer(**kw), ScanJobServer(**kw)
    fast.aging_rate = scan.aging_rate = aging_rate
    assert drive(fast, seed) == drive(scan, seed)
    assert snapshot(fast) == snapshot(scan)
    # The trace really mixes every queue transition.
    events = [e for j in fast.jobs.values() for _, e in j.history]
    for needle in ("preempted", "requeued with backoff", "cancelled",
                   "expired while queued", "deadline missed"):
        assert any(needle in e for e in events), needle


def test_rounding_tie_falls_back_to_submission_order():
    """Two jobs whose waits differ by less than the score's rounding
    step tie exactly; the earlier submission wins although the later one
    has the earlier submit_time (and so heads its ready group)."""
    picks = []
    for cls in (JobServer, ScanJobServer):
        srv = cls(num_gpus=1)
        first = srv.submit(JobSpec(NoOpWorkload(1), arrival=2e-11, gpus=1))
        srv.submit(JobSpec(NoOpWorkload(1), arrival=1e-11, gpus=1))
        srv.tenant_usage["default"] = 1e6
        srv.node.host_advance(1e-3)
        now = srv.node.time
        a, b = (srv._score(j, now) for j in srv.jobs.values())
        assert a[0] == b[0]
        picks.append(srv.step())
        assert picks[-1] is first
    assert picks[0].id == picks[1].id


def score_calls_per_lease(monkeypatch, n: int) -> float:
    """``_score`` calls per lease on an open-loop NoOp trace of ``n``
    jobs: bursts of 50 arrivals, 3 tenants x 2 priorities (6 groups)."""
    calls = 0
    score = JobServer._score

    def counting(self, job, now):
        nonlocal calls
        calls += 1
        return score(self, job, now)

    monkeypatch.setattr(JobServer, "_score", counting)
    srv = JobServer(num_gpus=1)
    order = list(range(n))
    random.Random(n).shuffle(order)
    for i in order:
        srv.submit(JobSpec(
            NoOpWorkload(1), tenant=TENANTS[i % 3], priority=float(i % 2),
            arrival=(i // 50) * 1e-4, gpus=1,
        ))
    leases = 0
    while srv.step() is not None:
        leases += 1
    assert leases == n
    return calls / leases


def test_pick_cost_is_independent_of_history(monkeypatch):
    groups = len(TENANTS) * 2
    small = score_calls_per_lease(monkeypatch, 500)
    large = score_calls_per_lease(monkeypatch, 5000)
    # One score per group head, plus the winning group's next key (the
    # tie-prefix probe). A scan would score every eligible job.
    assert small <= groups + 2
    assert large <= groups + 2
    assert abs(large - small) <= 0.5
