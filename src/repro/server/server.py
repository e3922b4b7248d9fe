"""The multi-tenant job server (DESIGN.md §13).

One :class:`JobServer` owns one simulated node and time-slices it between
tenants, Slurm-style: ``submit`` runs admission control against the
tenant's :class:`~repro.server.jobs.TenantQuota` and enqueues a
:class:`~repro.server.jobs.Job`; the scheduling loop picks the most
underserved eligible job (fair share with priority aging), leases the node
to it (``SimNode.begin_lease``: tenant fault plan, memory-quota capacity
clamp, per-tenant fault domain), and runs checkpoint-sized chunks until
the job finishes, its time slice expires (cooperative preemption at a
checkpoint boundary, recorded as a :class:`~repro.errors.PreemptedError`),
its deadline or simulated-time quota trips, or an unrecoverable fault
tears the lease down (capped-exponential backoff requeue). The server
takes the node, the time slice and the tenant quotas; the default quota,
the aging rate and the requeue backoff are class attributes.

Scheduling is **serial**: at most one job runs at a time, which keeps
fault attribution exact and makes every schedule a deterministic function
of the submissions — two servers fed the same jobs produce identical
histories, simulated times and (bit-identical) results.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.core import Scheduler
from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    PreemptedError,
    QuotaExceededError,
    UnrecoverableError,
)
from repro.hardware import GTX_780
from repro.hardware.specs import GPUSpec
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
from repro.server.workloads import Workload
from repro.sim.node import SimNode
from repro.utils.backoff import capped_backoff

#: States a job can be scheduled from.
QUEUED = (PENDING, PREEMPTED)


def solo_run(
    workload: Workload,
    spec: GPUSpec = GTX_780,
    num_gpus: int = 4,
    gpus: Optional[int] = None,
    functional: bool = True,
) -> tuple:
    """Run a workload alone on a fresh node — the baseline every server
    job is compared against. Returns ``(result, sim_seconds)``."""
    node = SimNode(spec, num_gpus, functional=functional)
    devices = tuple(range(gpus)) if gpus is not None else None
    sched = Scheduler(node, devices=devices)
    t0 = node.time  # before bind: leases pay analysis too, so the
    workload.bind(sched)  # baseline must include it once
    while not workload.finished:
        workload.run_chunk(sched)
    return workload.result(), node.time - t0


class JobServer:
    """Slurm-like multi-tenant job service over one simulated node.

    Args:
        spec: GPU model of the node (Table 3).
        num_gpus: Node size.
        functional: Functional-mode node (results checkable); the server
            is mode-agnostic.
        time_slice: Simulated seconds a job may hold the node while other
            work is eligible; expiry preempts at the next checkpoint
            boundary. ``None`` disables preemption.
        quotas: tenant name -> :class:`TenantQuota`. Unknown tenants get
            ``default_quota``.
    """

    #: Allowance for tenants not in ``quotas``.
    default_quota = TenantQuota()
    #: Fair-share priority aging (DESIGN.md §13): a waiting job's
    #: effective usage is discounted by ``aging_rate`` * wait-seconds, so
    #: even a heavy tenant's job eventually runs (no starvation). The
    #: ready groups' order needs it >= 0 (see ``_promote``).
    aging_rate = 0.1
    #: First fault-requeue backoff in simulated seconds (doubles per
    #: requeue).
    requeue_base = 1e-4
    #: Upper bound on a single backoff interval.
    requeue_cap = 1e-2
    #: Fault requeues before the job fails for good.
    max_requeues = 4

    def __init__(
        self,
        spec: GPUSpec = GTX_780,
        num_gpus: int = 4,
        functional: bool = True,
        time_slice: Optional[float] = None,
        quotas: Optional[dict[str, TenantQuota]] = None,
    ):
        self.node = SimNode(spec, num_gpus, functional=functional)
        self.time_slice = time_slice
        self.quotas = dict(quotas or {})
        self.jobs: dict[str, Job] = {}
        self._order: dict[str, int] = {}  # submission sequence (tie-break)
        self._ids = itertools.count(1)
        #: tenant -> simulated execution seconds delivered (fair share).
        self.tenant_usage: dict[str, float] = {}
        # Queue indexes (DESIGN.md §13 "Policy"). Every entry carries the
        # job's enqueue version; see _live.
        self._version: dict[str, int] = {}
        #: heap of (max(arrival, not_before), order, version, job).
        self._due: list[tuple] = []
        #: heap of (deadline, order, version, job).
        self._deadlines: list[tuple] = []
        #: (tenant, priority) -> (heap of distinct aging keys,
        #: key -> heap of (order, version, job)): the eligible jobs.
        self._ready: dict[tuple, tuple[list, dict]] = {}

    # -- quota helpers ---------------------------------------------------------
    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _gpus_of(self, spec: JobSpec) -> int:
        return spec.gpus if spec.gpus is not None else self.node.num_gpus

    # -- Slurm-like API --------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admission control, then enqueue. Raises
        :class:`~repro.errors.QuotaExceededError` when the submission can
        never fit its tenant's allowance — over-quota work is rejected at
        the door, not discovered mid-run."""
        q = self.quota(spec.tenant)
        gpus = self._gpus_of(spec)
        if gpus < 1 or gpus > self.node.num_gpus:
            raise QuotaExceededError(
                f"job requests {gpus} GPUs on a "
                f"{self.node.num_gpus}-GPU node",
                tenant=spec.tenant,
                resource="gpus",
                requested=gpus,
                limit=self.node.num_gpus,
            )
        if q.max_gpus is not None and gpus > q.max_gpus:
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} may use at most {q.max_gpus} "
                f"GPUs, requested {gpus}",
                tenant=spec.tenant,
                resource="gpus",
                requested=gpus,
                limit=q.max_gpus,
            )
        if q.max_device_bytes is not None:
            floor = spec.workload.min_device_bytes(gpus)
            if floor > q.max_device_bytes:
                raise QuotaExceededError(
                    f"workload needs >= {floor} B per device even fully "
                    f"chunked; tenant {spec.tenant!r} is allowed "
                    f"{q.max_device_bytes} B",
                    tenant=spec.tenant,
                    resource="device-memory",
                    requested=floor,
                    limit=q.max_device_bytes,
                )
        job = Job(
            id=f"job-{next(self._ids):04d}",
            spec=spec,
            submit_time=max(self.node.time, spec.arrival),
        )
        job.log(job.submit_time, "submitted")
        self.jobs[job.id] = job
        self._order[job.id] = len(self._order)
        self.tenant_usage.setdefault(spec.tenant, 0.0)
        self._enqueue(job)
        return job

    def status(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id!r}") from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued (PENDING/PREEMPTED) job. Terminal jobs are left
        untouched; the serial scheduler never exposes a RUNNING job to
        callers, so there is nothing to kill mid-flight."""
        job = self.status(job_id)
        if job.state in QUEUED:
            job.state = CANCELLED
            # A job cancelled before its open-loop arrival has
            # submit_time in the future; clamp so end_time - submit_time
            # (the reported queue residency) can never go negative.
            job.end_time = max(self.node.time, job.submit_time)
            job.log(job.end_time, "cancelled")
        return job

    def queue(self) -> list[Job]:
        """Non-terminal jobs in current scheduling preference order."""
        live = [
            j
            for j in self.jobs.values()
            if j.state in (PENDING, PREEMPTED, RUNNING)
        ]
        return sorted(live, key=lambda j: self._score(j, self.node.time))

    # -- fair share ------------------------------------------------------------
    def _score(self, job: Job, now: float) -> tuple:
        """Lower runs first: normalized tenant usage, discounted by how
        long the job has waited (priority aging) and its nice value;
        submission order breaks exact ties deterministically."""
        q = self.quota(job.spec.tenant)
        usage = self.tenant_usage.get(job.spec.tenant, 0.0)
        share = max(q.share, 1e-9)
        # The clamp never applies to an eligible job: submit_time =
        # max(node.time at submit, arrival) <= now, because the node
        # clock only moves forward and eligibility needs arrival <= now.
        # queue() still ranks jobs that have not arrived yet.
        wait = max(0.0, now - job.submit_time)
        score = usage / share - self.aging_rate * wait - job.spec.priority
        return (score, self._order[job.id])

    # -- queue indexes ---------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        """Index a job that (re-)entered the queue: at submit, preemption
        and fault requeue. The fresh version makes every older entry of
        the job stale, so entries are never removed eagerly — cancel,
        _fail and the lease's error path need no index upkeep."""
        order = self._order[job.id]
        version = self._version[job.id] = self._version.get(job.id, -1) + 1
        due = max(job.spec.arrival, job.not_before)
        heapq.heappush(self._due, (due, order, version, job))
        # Pushed on every enqueue, not once: a fault requeue may re-enqueue
        # a job that is already past its deadline.
        if job.spec.deadline is not None:
            heapq.heappush(
                self._deadlines, (job.spec.deadline, order, version, job)
            )

    def _live(self, job: Job, version: int) -> bool:
        return job.state in QUEUED and self._version[job.id] == version

    def _promote(self, now: float) -> None:
        """Move every job eligible by ``now`` into its (tenant, priority)
        ready group. The key is submit_time, in whose order the group's
        scores rise; with aging off all of them tie, so every job gets
        key 0.0 and its bucket's submission order decides."""
        due = self._due
        while due and due[0][0] <= now:
            _, order, version, job = heapq.heappop(due)
            if not self._live(job, version):
                continue
            keys, buckets = self._ready.setdefault(
                (job.spec.tenant, job.spec.priority), ([], {})
            )
            key = job.submit_time if self.aging_rate else 0.0
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = []
                heapq.heappush(keys, key)
            heapq.heappush(bucket, (order, version, job))

    def _head(self, group: tuple[list, dict]) -> Optional[list]:
        """Drop stale entries off ``group``'s front; return the bucket
        holding its earliest-key live job (that bucket's first entry),
        or None when the group has no live job."""
        keys, buckets = group
        while keys:
            bucket = buckets[keys[0]]
            while bucket and not self._live(bucket[0][2], bucket[0][1]):
                heapq.heappop(bucket)
            if bucket:
                return bucket
            del buckets[heapq.heappop(keys)]
        return None

    def _tied_head(
        self, group: tuple[list, dict], best: float, now: float
    ) -> list:
        """The lowest-order bucket among ``group``'s keys that score
        exactly ``best``. Rounding can give later keys the head's score;
        they form a prefix of the key order, because the score is
        monotone in the key."""
        keys = group[0]
        winner = self._head(group)
        popped = [heapq.heappop(keys)]
        while (bucket := self._head(group)) is not None and (
            self._score(bucket[0][2], now)[0] == best
        ):
            if bucket[0][0] < winner[0][0]:
                winner = bucket
            popped.append(heapq.heappop(keys))
        for key in popped:
            heapq.heappush(keys, key)
        return winner

    def _expire_dead_jobs(self) -> None:
        """Fail queued jobs whose deadline already passed, *before* they
        are leased: a dead-on-arrival job would otherwise burn a full
        lease (at least one chunk — the progress guarantee) on work whose
        result is contractually worthless, stealing node time from live
        tenants. Not-yet-arrived jobs expire too."""
        now = self.node.time
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] < now:
            _, _, version, job = heapq.heappop(deadlines)
            if self._live(job, version):
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
        """The eligible job with the lowest ``_score``. Each ready group's
        first job has the group's lowest score, so only group heads (and
        exact-score ties) are scored, never the whole queue."""
        now = self.node.time
        self._promote(now)
        heads = []
        for gkey, group in list(self._ready.items()):
            bucket = self._head(group)
            if bucket is None:
                del self._ready[gkey]
            else:
                heads.append((self._score(bucket[0][2], now)[0], group))
        if not heads:
            return None
        best = min(score for score, _ in heads)
        bucket = min(
            (self._tied_head(group, best, now) for s, group in heads
             if s == best),
            key=lambda b: b[0][0],
        )
        return heapq.heappop(bucket)[2]

    def _next_eligibility(self) -> Optional[float]:
        """Earliest future time a queued job becomes eligible (arrival or
        fault backoff), or None if the queue is truly empty. Called only
        after _pick found nothing eligible, so no queued job is ready."""
        due = self._due
        while due and not self._live(due[0][3], due[0][2]):
            heapq.heappop(due)
        return due[0][0] if due else None

    # -- scheduling loop -------------------------------------------------------
    def _idle_advance(self, to: float) -> None:
        """Advance the node clock to ``to`` in one hop. The host clock is
        advanced by ``to - host_time`` (not ``to - node.time``): a
        partially drained lease leaves the engine clock ahead of the host
        clock, and stepping by the node-time delta would then creep the
        host clock toward ``to`` one sliver per call — thousands of idle
        hops for a closely spaced serving trace."""
        if to > self.node.host_time:
            self.node.host_advance(to - self.node.host_time)

    def _step(self, horizon: float) -> Optional[Job]:
        """One scheduling decision: run the best eligible job for one
        lease (to completion, preemption, or failure). Returns the job, or
        None when nothing is eligible by ``horizon`` (idle-advancing the
        clock to each arrival/backoff expiry up to it on the way). The
        idle advance is an iterative loop: recursing once per future
        arrival overflows the interpreter stack on serving-scale
        traces."""
        while True:
            self._expire_dead_jobs()
            job = self._pick()
            if job is not None:
                self._run_lease(job)
                return job
            nxt = self._next_eligibility()
            if nxt is None or nxt <= self.node.time or nxt > horizon:
                return None
            self._idle_advance(nxt)

    def step(self) -> Optional[Job]:
        """One lease of the best eligible job, idle-advancing as far as
        the next arrival or backoff expiry needs; None when the queue is
        drained."""
        return self._step(math.inf)

    def run(self) -> None:
        """Drain the queue: step until no job is pending or preempted."""
        while self.step() is not None:
            pass

    def step_until(self, horizon: float) -> list[Job]:
        """Arrival-driven stepping: run every lease that becomes eligible
        up to simulated time ``horizon``, then stop with the clock at
        ``max(node.time, horizon)`` — never idle-advancing past it.

        This is the open-loop injection hook: a traffic generator
        alternates ``submit`` (with future ``arrival`` stamps) and
        ``step_until(now)`` without handing the server an excuse to race
        ahead of the part of the trace it has seen. Returns the jobs run,
        in execution order."""
        ran: list[Job] = []
        while (job := self._step(horizon)) is not None:
            ran.append(job)
        if horizon > self.node.time:
            self._idle_advance(horizon)
            self._expire_dead_jobs()
        return ran

    # -- one lease -------------------------------------------------------------
    def _others_waiting(self, job: Job) -> bool:
        """Whether any job is eligible now; ``job`` is RUNNING, so it is
        in no index."""
        self._promote(self.node.time)
        return any(self._head(g) is not None for g in self._ready.values())

    def _run_lease(self, job: Job) -> None:
        node = self.node
        spec = job.spec
        q = self.quota(spec.tenant)
        devices = tuple(range(self._gpus_of(spec)))
        lease_start = node.time
        # Plan-relative clock: the job has lived `sim_time_used` seconds
        # of execution so far, so its fault plan's t=0 maps to
        # `lease_start - sim_time_used` on the node's clock.
        node.begin_lease(
            faults=spec.faults,
            epoch=lease_start - job.sim_time_used,
            capacity=q.max_device_bytes,
            devices=devices,
        )
        sched = Scheduler(node, devices=devices)
        resumed = job.state == PREEMPTED or job.requeues > 0
        job.state = RUNNING
        if job.start_time is None:
            job.start_time = lease_start
        job.log(
            lease_start,
            f"resumed at iteration {spec.workload.completed}"
            if resumed
            else "started",
        )
        try:
            spec.workload.bind(sched)
            self._drive(job, sched, lease_start)
        except UnrecoverableError as e:
            self._requeue_after_fault(job, e)
        except CapacityError as e:
            self._fail(job, e, f"capacity: {e}")
        except BaseException as e:
            # Any other escape (a workload bug, a KeyboardInterrupt, an
            # unexpected scheduler error) used to leave the job RUNNING
            # forever — a zombie that haunts queue() and pins its tenant's
            # fair-share score. Settle it as FAILED, then re-raise: the
            # error is the caller's problem, the bookkeeping is ours.
            if job.state == RUNNING:
                self._fail(job, e, f"server error: {e!r}")
            raise
        finally:
            used = node.time - lease_start
            job.sim_time_used += used
            self.tenant_usage[spec.tenant] = (
                self.tenant_usage.get(spec.tenant, 0.0) + used
            )
            sched.release()
            # The loop holds the released scheduler; a waiting or finished
            # job must not keep it alive.
            spec.workload.loop = None
            node.end_lease()

    def _drive(self, job: Job, sched: Scheduler, lease_start: float) -> None:
        """Chunk loop of one lease; every lap starts and ends at a
        checkpoint boundary (host state complete)."""
        node = self.node
        spec = job.spec
        q = self.quota(spec.tenant)
        wl = spec.workload
        first = True
        while not wl.finished:
            # Guarantee progress: at least one chunk runs per lease, so a
            # pathological slice cannot livelock the queue.
            if not first and self._slice_expired(job, lease_start):
                self._preempt(job)
                return
            wl.run_chunk(sched)
            first = False
            now = node.time
            used = job.sim_time_used + (now - lease_start)
            if q.max_sim_time is not None and used > q.max_sim_time:
                e = QuotaExceededError(
                    f"job {job.id} consumed {used:.6g}s simulated "
                    f"execution time; tenant {spec.tenant!r} allows "
                    f"{q.max_sim_time:.6g}s",
                    tenant=spec.tenant,
                    resource="sim-time",
                    requested=used,
                    limit=q.max_sim_time,
                )
                self._fail(job, e, f"sim-time quota: {used:.6g}s")
                return
            if spec.deadline is not None and now > spec.deadline:
                e = DeadlineExceededError(
                    f"job {job.id} missed its deadline "
                    f"t={spec.deadline:.6g} (now t={now:.6g})",
                    job_id=job.id,
                    deadline=spec.deadline,
                    now=now,
                )
                self._fail(job, e, f"deadline missed at t={now:.6g}")
                return
        job.state = DONE
        job.end_time = node.time
        job.log(node.time, "completed")

    def _slice_expired(self, job: Job, lease_start: float) -> bool:
        if self.time_slice is None:
            return False
        if self.node.time - lease_start < self.time_slice:
            return False
        return self._others_waiting(job)

    def _preempt(self, job: Job) -> None:
        now = self.node.time
        wl = job.spec.workload
        err = PreemptedError(
            f"job {job.id} preempted at iteration {wl.completed} "
            f"(t={now:.6g})",
            job_id=job.id,
            at_iteration=wl.completed,
            time=now,
        )
        job.state = PREEMPTED
        job.preemptions += 1
        job.last_preemption = err
        job.log(now, f"preempted at iteration {wl.completed}")
        self._enqueue(job)

    def _requeue_after_fault(self, job: Job, err: UnrecoverableError) -> None:
        now = self.node.time
        job.requeues += 1
        if job.requeues > self.max_requeues:
            self._fail(
                job, err, f"failed for good after {self.max_requeues} requeues"
            )
            return
        backoff = capped_backoff(
            self.requeue_base, job.requeues, self.requeue_cap
        )
        job.not_before = now + backoff
        job.state = PENDING
        job.log(
            now,
            f"unrecoverable fault; requeued with backoff {backoff:.6g}s "
            f"(attempt {job.requeues})",
        )
        self._enqueue(job)

    def _fail(self, job: Job, err: BaseException, note: str) -> None:
        job.state = FAILED
        job.error = err
        # Clamp like cancel(): a job failed before its open-loop arrival
        # (e.g. an already-expired deadline) must not report a negative
        # queue residency.
        job.end_time = max(self.node.time, job.submit_time)
        job.log(job.end_time, f"failed: {note}")

    # -- reporting -------------------------------------------------------------
    def fairness(self) -> float:
        """Jain's fairness index over share-normalized tenant usage
        (1.0 = perfectly fair; 1/n = one tenant got everything)."""
        xs = [
            self.tenant_usage[t] / max(self.quota(t).share, 1e-9)
            for t in sorted(self.tenant_usage)
        ]
        xs = [x for x in xs if x > 0.0] or [1.0]
        n = len(xs)
        s, s2 = sum(xs), sum(x * x for x in xs)
        return (s * s) / (n * s2) if s2 > 0 else 1.0
