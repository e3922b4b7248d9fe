"""Preemption composed with the other robustness subsystems: straggler
windows (§11), memory-pressure chunked replay (§10), and per-tenant
fault domains with backoff requeue."""

import numpy as np

from repro.core import Scheduler
from repro.hardware import GTX_780
from repro.server import (
    DONE,
    GoLWorkload,
    JobServer,
    JobSpec,
    TenantQuota,
    solo_run,
)
from repro.sim import DeviceFailure, FaultPlan, SimNode, Straggler

TIME_SLICE = 2e-4


def gol(iters=8, size=48, seed=0):
    return GoLWorkload(size=size, iterations=iters, seed=seed)


def two_tenant_run(spec_a, spec_b):
    srv = JobServer(num_gpus=4, time_slice=TIME_SLICE)
    a, b = srv.submit(spec_a), srv.submit(spec_b)
    srv.run()
    return srv, a, b


class TestPreemptionWithStragglers:
    def test_straggler_tenant_contained_and_bit_identical(self):
        """One tenant's private straggler window slows only its own
        leases; both jobs survive preemption and match their solo runs."""
        solo_result, solo_time = solo_run(gol(), num_gpus=4, gpus=2)
        straggle = FaultPlan(
            stragglers=[
                Straggler(1, compute_factor=4.0, start=0.0, end=None)
            ]
        )
        srv, slow, clean = two_tenant_run(
            JobSpec(gol(), tenant="slow", name="slow", gpus=2,
                    faults=straggle),
            JobSpec(gol(seed=3), tenant="clean", name="clean", gpus=2),
        )
        assert slow.state == clean.state == DONE
        assert np.array_equal(slow.spec.workload.result(), solo_result)
        assert np.array_equal(
            clean.spec.workload.result(),
            clean.spec.workload.reference(),
        )
        # The fault domain is private: the clean tenant pays for the
        # queue, not for the straggler.
        assert slow.sim_time_used > solo_time

    def test_straggler_window_spans_a_preemption(self):
        """Window times are job-relative: a window opened in lease 1 is
        still open (epoch-rebased) when the job resumes in lease 2."""
        wl = gol(iters=12)
        window = FaultPlan(
            stragglers=[
                Straggler(0, compute_factor=2.0, start=0.0, end=1.0)
            ]
        )
        srv, slow, _ = two_tenant_run(
            JobSpec(wl, tenant="slow", gpus=2, faults=window),
            JobSpec(gol(iters=8, seed=4), tenant="other", gpus=2),
        )
        assert slow.state == DONE
        assert slow.preemptions >= 1  # the composition actually happened
        assert np.array_equal(wl.result(), wl.reference())


class TestPreemptionUnderPressure:
    def _working_set(self, factory, gpus=2):
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node, devices=tuple(range(gpus)))
        wl = factory()
        wl.bind(sched)
        while not wl.finished:
            wl.run_chunk(sched)
        return wl.result(), max(
            r["peak"] for r in node.memory_report().values()
        )

    def test_memory_quota_forces_chunked_replay_bit_identically(self):
        """A 0.6x per-device memory quota pushes the tenant down the §10
        ladder during its leases — still preempted, still exact."""
        factory = lambda: gol(iters=8, size=96)  # noqa: E731
        ref, ws = self._working_set(factory)
        clamp = int(ws * 0.6)
        wl = factory()
        assert wl.min_device_bytes(2) < clamp
        srv = JobServer(
            num_gpus=4,
            time_slice=TIME_SLICE,
            quotas={"squeezed": TenantQuota(max_device_bytes=clamp)},
        )
        squeezed = srv.submit(
            JobSpec(wl, tenant="squeezed", name="squeezed", gpus=2)
        )
        other = srv.submit(
            JobSpec(gol(seed=5), tenant="roomy", name="roomy", gpus=2)
        )
        srv.run()
        assert squeezed.state == other.state == DONE
        assert np.array_equal(wl.result(), ref)
        # Degradation engaged during the squeezed tenant's leases.
        assert srv.node.trace.matching("evict:") or srv.node.trace.matching(
            "#chunk"
        )

    def test_capacity_restored_between_leases(self):
        """The clamp is lease-scoped: after the squeezed tenant's lease
        ends, the node's devices are back to full capacity."""
        srv = JobServer(
            num_gpus=2,
            quotas={"squeezed": TenantQuota(max_device_bytes=1 << 20)},
        )
        full = [d.memory.capacity for d in srv.node.devices]
        job = srv.submit(
            JobSpec(gol(iters=2, size=32), tenant="squeezed", gpus=2)
        )
        srv.run()
        assert job.state == DONE
        assert [d.memory.capacity for d in srv.node.devices] == full


class TestFaultRequeue:
    def test_unrecoverable_fault_backs_off_then_succeeds(self):
        """Both leased devices fail-stop -> the lease dies with an
        UnrecoverableError -> the job requeues with backoff and succeeds
        on repaired devices (fired failures are consumed per tenant)."""
        solo_result, _ = solo_run(gol(), num_gpus=4, gpus=2)
        doomed = FaultPlan(
            device_failures=[DeviceFailure(0, 1e-6), DeviceFailure(1, 1e-6)]
        )
        srv = JobServer(num_gpus=4)
        job = srv.submit(
            JobSpec(gol(), tenant="unlucky", gpus=2, faults=doomed)
        )
        srv.run()
        assert job.state == DONE
        assert job.requeues == 1
        events = [e for _, e in job.history]
        assert any("requeued with backoff" in e for e in events)
        assert np.array_equal(job.spec.workload.result(), solo_result)

    def test_requeue_budget_exhausts_to_failed(self):
        """With no requeue budget, the first unrecoverable fault fails
        the job for good instead of backing off."""
        doomed = FaultPlan(
            device_failures=[DeviceFailure(0, 1e-6), DeviceFailure(1, 1e-6)]
        )
        srv = JobServer(num_gpus=4)
        srv.max_requeues = 0
        job = srv.submit(
            JobSpec(gol(iters=4), tenant="cursed", gpus=2, faults=doomed)
        )
        srv.run()
        assert job.state == "FAILED"
        assert job.requeues == 1
        assert any("failed for good" in e for _, e in job.history)

    def test_fired_failures_do_not_leak_to_other_tenants(self):
        """Per-tenant fault domain: after the unlucky tenant's lease dies
        on devices 0-1, another tenant's lease on the same devices runs
        clean."""
        doomed = FaultPlan(
            device_failures=[DeviceFailure(0, 1e-6), DeviceFailure(1, 1e-6)]
        )
        srv = JobServer(num_gpus=4)
        unlucky = srv.submit(
            JobSpec(gol(), tenant="unlucky", gpus=2, faults=doomed)
        )
        bystander = srv.submit(
            JobSpec(gol(seed=7), tenant="bystander", gpus=2)
        )
        srv.run()
        assert unlucky.state == bystander.state == DONE
        assert bystander.requeues == 0
        wl = bystander.spec.workload
        assert np.array_equal(wl.result(), wl.reference())
