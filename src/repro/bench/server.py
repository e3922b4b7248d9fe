"""Job-server benchmark: queue waits, preemption overhead, fairness
(DESIGN.md §13).

``python -m repro.bench --server`` measures three things about the
multi-tenant job server, functional-mode so results can be verified:

* **Contended scenario** — three tenants (Game of Life, histogram,
  chained SGEMM) share a 4-GPU node under a time slice that forces
  preemptions. Per job: queue wait, preemption count, execution time
  (sum of lease times), and the **preemption overhead** — execution time
  over an unshared solo run of the identical workload. The overhead is
  the price of checkpoint/resume (each resume re-distributes host state);
  the bench fails if it exceeds ``OVERHEAD_GATE`` (1.2x) for any demo
  workload. Every finished job's output is asserted **bit-identical** to
  its solo run.
* **Fairness vs offered load** — a 3-tenant open-loop arrival trace at
  0.5x/1x/2x load; per load: Jain's fairness index over share-normalized
  tenant GPU-seconds and queue-wait p50/p95.
* **Determinism** — the contended scenario runs twice; job histories,
  simulated times and outputs must match exactly.

Results are written to ``BENCH_server.json``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import fmt_table, percentiles
from repro.hardware.specs import GPUSpec, GTX_780
from repro.server.jobs import JobSpec, TenantQuota
from repro.server.server import JobServer, solo_run
from repro.server.workloads import (
    GoLWorkload,
    HistogramWorkload,
    SgemmWorkload,
)

#: Fail the bench if any demo job's execution time exceeds this multiple
#: of its unshared solo run (acceptance gate, CI-enforced).
OVERHEAD_GATE = 1.2
TIME_SLICE = 2e-4
LOADS = (0.5, 1.0, 2.0)

#: (tenant, name, factory) — identical construction for solo and shared
#: runs, which is what makes bit-identity assertable.
DEMO = (
    ("alice", "gol", lambda: GoLWorkload(size=48, iterations=8, seed=0)),
    ("bob", "hist", lambda: HistogramWorkload(size=64, iterations=6, seed=1)),
    ("carol", "sgemm", lambda: SgemmWorkload(size=32, iterations=4, seed=2)),
)
DEMO_GPUS = 2


def _run_contended(spec: GPUSpec, solos: dict) -> dict:
    srv = JobServer(spec, num_gpus=4, time_slice=TIME_SLICE)
    jobs = {}
    for tenant, name, factory in DEMO:
        jobs[name] = srv.submit(
            JobSpec(factory(), tenant=tenant, name=name, gpus=DEMO_GPUS)
        )
    srv.run()
    out: dict = {"jobs": {}, "sim_time": srv.node.time,
                 "fairness": srv.fairness()}
    waits = []
    for name, job in jobs.items():
        assert job.state == "DONE", f"{name}: {job.state} ({job.error})"
        solo_result, solo_time = solos[name]
        got = job.spec.workload.result()
        assert np.array_equal(got, solo_result), (
            f"{name}: shared-run output differs from solo run"
        )
        overhead = job.sim_time_used / solo_time
        waits.append(job.queue_wait)
        out["jobs"][name] = {
            "tenant": job.spec.tenant,
            "queue_wait": job.queue_wait,
            "preemptions": job.preemptions,
            "exec_time": job.sim_time_used,
            "solo_time": solo_time,
            "overhead": overhead,
            "history": [list(h) for h in job.history],
        }
    out["queue_wait"] = percentiles(waits)
    out["max_overhead"] = max(
        j["overhead"] for j in out["jobs"].values()
    )
    return out


def _run_load(spec: GPUSpec, load: float) -> dict:
    """Open-loop arrivals: two jobs per tenant, spaced by the contended
    scenario's service time scaled by 1/load (2x load = arrivals twice
    as dense as the node can serve)."""
    base_spacing = 6e-4 / load
    srv = JobServer(
        spec,
        num_gpus=4,
        time_slice=TIME_SLICE,
        quotas={"alice": TenantQuota(share=2.0)},
    )
    jobs = []
    k = 0
    for wave in range(2):
        for tenant, name, factory in DEMO:
            jobs.append(
                srv.submit(
                    JobSpec(
                        factory(),
                        tenant=tenant,
                        name=f"{name}.{wave}",
                        gpus=DEMO_GPUS,
                        arrival=k * base_spacing,
                    )
                )
            )
            k += 1
    srv.run()
    waits = [j.queue_wait for j in jobs if j.queue_wait is not None]
    return {
        "load": load,
        "fairness": srv.fairness(),
        "queue_wait": percentiles(waits),
        "done": sum(1 for j in jobs if j.state == "DONE"),
        "jobs": len(jobs),
    }


def measure_server(spec: GPUSpec = GTX_780) -> dict:
    """Run solo baselines, the contended scenario (twice — determinism
    assert), and the offered-load sweep. Raises ``AssertionError`` on a
    non-bit-identical output, an overhead above ``OVERHEAD_GATE``, or a
    nondeterministic schedule."""
    solos = {}
    for tenant, name, factory in DEMO:
        wl = factory()
        result, t = solo_run(wl, spec, num_gpus=4, gpus=DEMO_GPUS)
        solos[name] = (result, t)
    shared = _run_contended(spec, solos)
    replay = _run_contended(spec, solos)
    assert shared == replay or _histories(shared) == _histories(replay), (
        "job-server schedule is nondeterministic"
    )
    assert shared["sim_time"] == replay["sim_time"], (
        "job-server simulated time is nondeterministic"
    )
    assert shared["max_overhead"] <= OVERHEAD_GATE, (
        f"preemption overhead {shared['max_overhead']:.3f}x exceeds the "
        f"{OVERHEAD_GATE}x gate"
    )
    return {
        "spec": spec.name,
        "time_slice": TIME_SLICE,
        "overhead_gate": OVERHEAD_GATE,
        "solo": {name: {"sim_time": t} for name, (_, t) in solos.items()},
        "contended": shared,
        "loads": [_run_load(spec, load) for load in LOADS],
    }


def _histories(run: dict) -> list:
    return [run["jobs"][n]["history"] for n in sorted(run["jobs"])]


def server_report(results: dict) -> str:
    """The result tree as aligned plain-text tables."""
    c = results["contended"]
    rows = [
        [
            name,
            r["tenant"],
            f"{r['queue_wait'] * 1e3:.3f} ms",
            str(r["preemptions"]),
            f"{r['exec_time'] * 1e3:.3f} ms",
            f"{r['solo_time'] * 1e3:.3f} ms",
            f"{r['overhead']:.3f}x",
        ]
        for name, r in c["jobs"].items()
    ]
    t1 = fmt_table(
        f"Job server: contended 3-tenant scenario ({results['spec']}, "
        f"slice {results['time_slice'] * 1e3:.2g} ms, "
        f"fairness {c['fairness']:.3f})",
        ["job", "tenant", "wait", "preempt", "exec", "solo", "overhead"],
        rows,
    )
    rows = [
        [
            f"{r['load']:.1f}x",
            f"{r['fairness']:.3f}",
            f"{r['queue_wait']['p50'] * 1e3:.3f} ms",
            f"{r['queue_wait']['p95'] * 1e3:.3f} ms",
            f"{r['done']}/{r['jobs']}",
        ]
        for r in results["loads"]
    ]
    t2 = fmt_table(
        "Fairness and queue wait vs offered load",
        ["load", "fairness", "wait p50", "wait p95", "done"],
        rows,
    )
    return t1 + "\n\n" + t2
