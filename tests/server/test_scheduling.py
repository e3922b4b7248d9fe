"""Fair-share ordering, priority aging, arrivals, and schedule
determinism."""

import numpy as np

from repro.server import (
    DONE,
    GoLWorkload,
    HistogramWorkload,
    JobServer,
    JobSpec,
    TenantQuota,
)


def gol(iters=4, size=32, seed=0):
    return GoLWorkload(size=size, iterations=iters, seed=seed)


class TestFairShare:
    def test_underserved_tenant_runs_first(self):
        srv = JobServer(num_gpus=2)
        a = srv.submit(JobSpec(gol(), tenant="alice", gpus=2))
        b = srv.submit(JobSpec(gol(), tenant="bob", gpus=2))
        # Alice has already consumed GPU-seconds; bob jumps the queue.
        srv.tenant_usage["alice"] = 1.0
        assert srv.queue() == [b, a]

    def test_share_weight_divides_usage(self):
        srv = JobServer(
            num_gpus=2, quotas={"alice": TenantQuota(share=4.0)}
        )
        a = srv.submit(JobSpec(gol(), tenant="alice", gpus=2))
        b = srv.submit(JobSpec(gol(), tenant="bob", gpus=2))
        # Equal raw usage, but alice's share discounts hers 4x.
        srv.tenant_usage["alice"] = 1.0
        srv.tenant_usage["bob"] = 1.0
        assert srv.queue() == [a, b]

    def test_priority_breaks_intra_tenant_ties(self):
        srv = JobServer(num_gpus=2)
        lo = srv.submit(JobSpec(gol(), tenant="alice", gpus=2, priority=0.0))
        hi = srv.submit(JobSpec(gol(), tenant="alice", gpus=2, priority=1.0))
        assert srv.queue() == [hi, lo]

    def test_submission_order_is_the_final_tiebreak(self):
        srv = JobServer(num_gpus=2)
        first = srv.submit(JobSpec(gol(), tenant="alice", gpus=2))
        second = srv.submit(JobSpec(gol(), tenant="alice", gpus=2))
        assert srv.queue() == [first, second]

    def test_priority_aging_prevents_starvation(self):
        """A long-waiting job of a heavy tenant eventually outranks a
        fresh job of an idle tenant."""
        srv = JobServer(num_gpus=2)
        srv.aging_rate = 0.5
        old = srv.submit(JobSpec(gol(), tenant="heavy", gpus=2))
        srv.tenant_usage["heavy"] = 1.0
        srv.node.host_advance(3.0)  # old has now waited 3 s
        fresh = srv.submit(JobSpec(gol(), tenant="idle", gpus=2))
        # heavy: 1.0 - 0.5*3 = -0.5 < idle: 0.0
        assert srv.queue() == [old, fresh]

    def test_fairness_index_bounds(self):
        srv = JobServer(num_gpus=2, time_slice=2e-4)
        for i, tenant in enumerate(("alice", "bob")):
            srv.submit(
                JobSpec(gol(iters=6, seed=i), tenant=tenant, gpus=2)
            )
        srv.run()
        assert 0.5 < srv.fairness() <= 1.0


class TestArrivals:
    def test_future_arrival_idle_advances_clock(self):
        srv = JobServer(num_gpus=2)
        job = srv.submit(JobSpec(gol(), gpus=2, arrival=0.25))
        assert srv.queue() == [job]  # queued, but not yet eligible
        srv.run()
        assert job.state == DONE
        assert job.start_time >= 0.25
        # Arrival time does not count as queue wait.
        assert job.queue_wait == job.start_time - 0.25

    def test_step_returns_none_on_empty_queue(self):
        srv = JobServer(num_gpus=2)
        assert srv.step() is None


class TestDeterminism:
    def _scenario(self):
        srv = JobServer(
            num_gpus=4,
            time_slice=2e-4,
            quotas={"alice": TenantQuota(share=2.0)},
        )
        jobs = [
            srv.submit(
                JobSpec(gol(iters=8, size=48), tenant="alice",
                        name="life", gpus=2)
            ),
            srv.submit(
                JobSpec(HistogramWorkload(size=64, iterations=6, seed=1),
                        tenant="bob", name="hist", gpus=2)
            ),
            srv.submit(
                JobSpec(gol(iters=4, seed=2), tenant="carol",
                        name="gol2", gpus=2, arrival=1e-4)
            ),
        ]
        srv.run()
        return srv, jobs

    def test_same_submissions_same_schedule(self):
        srv1, jobs1 = self._scenario()
        srv2, jobs2 = self._scenario()
        assert [j.history for j in jobs1] == [j.history for j in jobs2]
        assert srv1.node.time == srv2.node.time
        assert srv1.fairness() == srv2.fairness()
        for j1, j2 in zip(jobs1, jobs2):
            assert j1.state == j2.state == DONE
            assert np.array_equal(
                j1.spec.workload.result(), j2.spec.workload.result()
            )
