"""The job server replays one node's plans across leases, jobs and tenants.

Every lease builds a fresh :class:`Scheduler`, but plans, call templates
and monitor transitions live in the node's geometry-keyed tables, so a
lease replays what earlier leases built. That must change host
wall-clock only: a seeded mixed trace (preemptions, device failures,
stragglers, transient transfer faults) runs through the server once with
the uncached oracle, ``Scheduler(plan_cache=False)``, and once as-is, and
every observable must match. Count gates pin the sharing itself: one
plan per distinct (kind, size, GPU count), however many leases run, and
after a shape's first lease every lease binds its calls from the node's
call templates, building no ``Task`` and computing no signature. The
tables hold no datum, so a finished lease's datums are freed.
"""

import gc
import random
import re
import weakref

import numpy as np
import pytest

import repro.core.plan as plan_mod
import repro.server.server as server_mod
from repro.core import Datum, Scheduler
from repro.server import (
    DONE,
    GoLWorkload,
    HistogramWorkload,
    JobServer,
    JobSpec,
    SgemmWorkload,
    TenantQuota,
)
from repro.sim import DeviceFailure, FaultPlan, Straggler, TransferFault

KINDS = (GoLWorkload, HistogramWorkload, SgemmWorkload)
QUOTAS = {"t0": TenantQuota(share=2.0), "t1": TenantQuota(share=1.0),
          "t2": TenantQuota(share=1.0)}


class UncachedScheduler(Scheduler):
    def __init__(self, node, **kw):
        super().__init__(node, plan_cache=False, **kw)


def fault_plan(rng: random.Random, gpus: int) -> FaultPlan:
    """One job's private fault plan (times are job-relative)."""
    pick = rng.randrange(4)
    if pick == 0 and gpus > 1:
        # The last leased device fail-stops mid-job: recovery re-segments
        # over the survivors, or the lease dies and the job requeues.
        return FaultPlan(device_failures=[
            DeviceFailure(gpus - 1, rng.uniform(1e-5, 1e-4))
        ])
    if pick == 1:
        return FaultPlan(device_failures=[
            DeviceFailure(d, 1e-6) for d in range(gpus)
        ])
    if pick == 2:
        return FaultPlan(stragglers=[Straggler(0, compute_factor=3.0)])
    return FaultPlan(transfer_faults=[TransferFault(nth=2, count=1)])


def specs(seed: int, n: int = 150, faults: bool = True,
          sizes=(8, 16)) -> list[JobSpec]:
    """A seeded Poisson trace of mixed jobs (fresh workloads and plans on
    every call, since both carry run state)."""
    rng = random.Random(seed)
    out = []
    t = 0.0
    for i in range(n):
        t += rng.expovariate(1 / 3e-4)
        gpus = rng.choice((1, 2, 4))
        wl = rng.choice(KINDS)(
            size=rng.choice(sizes), iterations=rng.choice((2, 3, 6)),
            checkpoint_every=rng.choice((1, 2)), seed=i,
        )
        fp = fault_plan(rng, gpus) if faults and rng.random() < 0.2 else None
        out.append(JobSpec(wl, tenant=f"t{i % 3}", name=f"j{i}", gpus=gpus,
                           arrival=t, faults=fp))
    return out


def run(monkeypatch, scheduler, jobs: list[JobSpec]):
    monkeypatch.setattr(server_mod, "Scheduler", scheduler)
    srv = JobServer(num_gpus=4, time_slice=2e-4, quotas=QUOTAS)
    submitted = [srv.submit(spec) for spec in jobs]
    srv.run()
    return srv, submitted


def observables(srv: JobServer, jobs) -> tuple:
    return (
        [(j.id, j.state, j.history, j.queue_wait, j.start_time, j.end_time,
          j.sim_time_used, j.preemptions, j.requeues) for j in jobs],
        srv.node.time,
        sorted(srv.tenant_usage.items()),
        [
            (r.kind, re.sub(r"#\d+", "#N", r.label), r.device, r.start,
             r.end, r.nbytes, r.src)
            for r in srv.node.trace
        ],
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_plans_match_uncached_oracle(monkeypatch, seed):
    oracle_srv, oracle = run(monkeypatch, UncachedScheduler, specs(seed))
    srv, jobs = run(monkeypatch, Scheduler, specs(seed))
    assert observables(srv, jobs) == observables(oracle_srv, oracle)
    for a, b in zip(jobs, oracle):
        assert np.array_equal(a.spec.workload.result(),
                              b.spec.workload.result())
    # The trace exercises what it claims to.
    assert sum(j.preemptions for j in jobs) > 0
    assert sum(j.requeues for j in jobs) > 0
    assert any(j.spec.faults is not None and j.state == DONE for j in jobs)
    assert oracle_srv.node.plan_tables is None
    assert srv.node.plan_tables.plans


class CountingScheduler(Scheduler):
    """Records every lease's scheduler, to sum per-lease counters."""

    made: list = []

    def __init__(self, node, **kw):
        super().__init__(node, **kw)
        CountingScheduler.made.append(self)


def test_plan_misses_bounded_by_distinct_shapes(monkeypatch):
    CountingScheduler.made = []
    jobs = specs(5, n=120, faults=False)
    srv, submitted = run(monkeypatch, CountingScheduler, jobs)
    shapes = {
        (j.workload.kind, j.workload.size, j.gpus) for j in jobs
    }
    leases = CountingScheduler.made
    assert len(leases) > 2 * len(shapes)
    assert len(srv.node.plan_tables.plans) <= len(shapes)
    assert sum(s.plans.misses for s in leases) <= len(shapes)
    assert all(j.state == DONE for j in submitted)
    for j in submitted:
        assert np.array_equal(j.spec.workload.result(),
                              j.spec.workload.reference())


def test_plans_checked_once_per_lease_and_submission(monkeypatch):
    """A lease checks a plan against its analyzed boxes only for an
    invoke with no bound record: once per distinct ``plan.prekey``."""
    import repro.core.scheduler as sched_mod

    keys: dict[int, set] = {}
    schedule = Scheduler._schedule

    def recording(self, task, key=None, rec=None):
        keys.setdefault(id(self), set()).add(key)
        return schedule(self, task, key, rec)

    checks = 0
    check_plan = sched_mod.check_plan

    def counting(*args):
        nonlocal checks
        checks += 1
        return check_plan(*args)

    monkeypatch.setattr(Scheduler, "_schedule", recording)
    monkeypatch.setattr(sched_mod, "check_plan", counting)
    CountingScheduler.made = []
    srv, submitted = run(monkeypatch, CountingScheduler,
                         specs(5, n=120, faults=False))
    assert all(j.state == DONE for j in submitted)
    assert len(keys) == len(CountingScheduler.made) > 1
    assert all(None not in ks for ks in keys.values())
    assert checks == sum(len(ks) for ks in keys.values())


def test_leases_after_a_shapes_first_build_no_task(monkeypatch):
    """After the first lease of each (kind, size, GPU count), a lease runs
    ``Task.__init__`` 0 times and ``task_signature`` 0 times: its
    ``analyze_call``s rebind the node's call templates, and its first
    invokes rebind the analyzed tasks and take the plan by the template's
    signature."""
    from tests.core.test_plan_cache import Counts

    counts = Counts(monkeypatch)
    leases = []
    run_lease = server_mod.JobServer._run_lease

    def spying(self, job):
        run_lease(self, job)
        wl = job.spec.workload
        leases.append(((wl.kind, wl.size, job.spec.gpus), counts.take()))

    monkeypatch.setattr(server_mod.JobServer, "_run_lease", spying)
    srv, submitted = run(monkeypatch, Scheduler,
                         specs(5, n=120, faults=False))
    assert all(j.state == DONE for j in submitted)
    first: dict[tuple, tuple] = {}
    later = []
    for shape, built in leases:
        if shape in first:
            later.append(built)
        else:
            first[shape] = built
    assert len(later) > 2 * len(first)
    assert set(later) == {(0, 0)}
    # A first lease builds one task and one signature per call shape.
    templates = srv.node.plan_tables.templates
    totals = [sum(col) for col in zip(*first.values())]
    assert totals == [len(templates)] * 2
    assert all(tasks > 0 for tasks, _ in first.values())
    for j in submitted:
        assert np.array_equal(j.spec.workload.result(),
                              j.spec.workload.reference())


def datums_in(obj, seen: set) -> list:
    """Every :class:`Datum` reachable from ``obj`` through containers and
    the attributes of repro objects."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Datum):
        return [obj]
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif type(obj).__module__.startswith("repro."):
        items = list(getattr(obj, "__dict__", {}).values()) + [
            getattr(obj, name) for name in getattr(obj, "__slots__", ())
            if hasattr(obj, name)
        ]
    else:
        return []
    return [d for item in items for d in datums_in(item, seen)]


def test_node_tables_hold_no_datum(monkeypatch):
    """The node's tables (plans, rects, templates, monitor transitions,
    gathers) are geometry only: they reach no datum, and with the
    collector off every datum a finished lease bound is freed."""
    made = []
    init = Datum.__init__

    def spying(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Datum, "__init__", spying)
    gc.collect()
    gc.disable()
    try:
        srv, submitted = run(monkeypatch, Scheduler,
                             specs(5, n=60, faults=False))
        assert all(j.state == DONE for j in submitted)
        tables = srv.node.plan_tables
        assert tables.templates and tables.plans
        assert datums_in(tables, set()) == []
        assert len(made) > 60
        assert [r for r in made if r() is not None] == []
    finally:
        gc.enable()


def test_plan_table_stays_at_its_limit(monkeypatch):
    """More distinct shapes than the limit: the oldest plan is evicted,
    the tables stay at the limit, and results stay exact."""
    monkeypatch.setattr(plan_mod, "PLAN_LIMIT", 2)
    jobs = specs(6, n=40, faults=False, sizes=(8, 12, 16))
    shapes = {(j.workload.kind, j.workload.size, j.gpus) for j in jobs}
    assert len(shapes) > 2
    oracle_srv, oracle = run(monkeypatch, UncachedScheduler,
                             specs(6, n=40, faults=False, sizes=(8, 12, 16)))
    srv, submitted = run(monkeypatch, Scheduler, jobs)
    tables = srv.node.plan_tables
    assert len(tables.plans) == 2
    assert len(tables.templates) == 2
    assert observables(srv, submitted) == observables(oracle_srv, oracle)
    for j in submitted:
        assert j.state == DONE
        assert np.array_equal(j.spec.workload.result(),
                              j.spec.workload.reference())


def test_compiled_calls_bounded_by_call_structures(monkeypatch):
    """Compiled calls (DESIGN.md §7) are code objects kept per node and
    keyed by their source: a call structure compiles once, however many
    leases bind it, and a 2-iteration job's lease compiles nothing after
    the first job of its shape."""
    import repro.core.compiled_call as compiled_call

    compiles = []
    real = compile

    def counting(source, *args, **kwargs):
        compiles.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(compiled_call, "compile", counting, raising=False)
    ran = [0]
    compiled_call_of = Scheduler._compiled

    def running(self, task, rec):
        handle = compiled_call_of(self, task, rec)
        ran[0] += handle is not None
        return handle

    monkeypatch.setattr(Scheduler, "_compiled", running)
    leases = []
    run_lease = server_mod.JobServer._run_lease

    def spying(self, job):
        before, calls = len(compiles), ran[0]
        run_lease(self, job)
        wl = job.spec.workload
        leases.append(((wl.kind, wl.size, job.spec.gpus), wl.iterations,
                       len(compiles) - before, ran[0] - calls))

    monkeypatch.setattr(server_mod.JobServer, "_run_lease", spying)
    rng = random.Random(11)
    jobs = [
        JobSpec(KINDS[i % 3](size=16, iterations=rng.choice((2, 16)),
                             seed=i),
                tenant=f"t{i % 3}", name=f"j{i}", gpus=rng.choice((1, 2, 4)),
                arrival=i * 3e-4)
        for i in range(90)
    ]
    # Slices long enough for a 16-iteration job to compile its calls.
    srv = JobServer(num_gpus=4, time_slice=1e-2, quotas=QUOTAS)
    submitted = [srv.submit(spec) for spec in jobs]
    srv.run()
    assert all(j.state == DONE for j in submitted)
    for j in submitted:
        assert np.array_equal(j.spec.workload.result(),
                              j.spec.workload.reference())
    binding = [lease for lease in leases if lease[3]]
    assert len(binding) > 4 * len(compiles) > 0
    assert len(compiles) == len(set(compiles)) \
        == len(srv.node.plan_tables.calls)
    seen = set()
    short = 0
    for shape, iterations, compiled, _ in leases:
        if shape in seen and iterations == 2:
            short += 1
            assert compiled == 0
        seen.add(shape)
    assert short > 10
