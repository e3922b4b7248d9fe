"""SLO shedding regression (ISSUE 10 satellite).

The bug: :class:`~repro.serving.batcher.DynamicBatcher` happily closed
batches containing requests whose SLO deadline had *already expired*
while they sat in the queue — burning replica capacity on guaranteed SLO
misses, exactly the dead-on-arrival class of bug the job server's
``_expire_dead_jobs`` fixed on the batch-submission side.

The first test documents the buggy default (it would have failed before
the fix had shedding been on); the rest pin the fixed opt-in behavior.
"""

import numpy as np
import pytest

from repro.serving import ServingConfig, ServingNode, poisson_trace
from repro.serving import service
from repro.serving.batcher import DynamicBatcher
from repro.serving.trace import Request

# Heavy enough that queueing delay routinely exceeds the tight SLO.
TRACE = poisson_trace(120, rate=8000.0, seed=5)
TIGHT = 1e-3
PLAIN = ServingConfig(slo=TIGHT)
SHED = ServingConfig(slo=TIGHT, shed_expired=True)


def arrivals():
    return {r.rid: r.arrival for r in TRACE.requests}


def mk(max_batch, slo=None):
    """A batcher with a 1 ms wait, overridden on the instance."""
    b = DynamicBatcher(max_batch, slo=slo)
    b.max_wait = 1e-3
    return b


class TestBugDocumented:
    def test_default_batches_dead_on_arrival_requests(self):
        """shed_expired=False (the old behavior): requests provably past
        their deadline at dispatch time are still batched and served."""
        rep = ServingNode(PLAIN).run(TRACE)
        arr = arrivals()
        doa = [s for s in rep.served if s.dispatched - arr[s.rid] >= TIGHT]
        assert doa  # capacity burned on guaranteed SLO misses
        assert len(rep.served) == len(TRACE)
        assert rep.shed == []


class TestShedding:
    def test_dead_on_arrival_requests_are_shed(self):
        rep = ServingNode(SHED).run(TRACE)
        assert rep.shed  # the dead requests were dropped...
        assert len(rep.served) + len(rep.shed) == len(TRACE)
        arr = arrivals()
        # ...and nothing served was dispatched past its deadline.
        assert all(
            s.dispatched - arr[s.rid] < TIGHT for s in rep.served
        )
        # Shed requests produce no results.
        assert all(r.rid not in rep.results for r in rep.shed)

    def test_shed_counts_as_slo_miss_not_free_win(self):
        """Attainment denominator includes shed requests: shedding must
        not inflate the SLO number by discarding the hard cases."""
        rep = ServingNode(SHED).run(TRACE)
        total = len(rep.served) + len(rep.shed)
        # Even if every survivor hit its SLO, attainment is bounded by
        # the served fraction — shed requests stay in the denominator.
        assert rep.slo_attainment <= len(rep.served) / total
        assert rep.slo_attainment < 1.0

    def test_survivors_bit_identical_to_unshedded_run(self):
        """Shedding changes *which* requests are answered, never the
        answers: every survivor's result matches the serve-everything
        run bit for bit."""
        base = ServingNode(PLAIN).run(TRACE)
        shed = ServingNode(SHED).run(TRACE)
        for rid, out in shed.results.items():
            np.testing.assert_array_equal(out, base.results[rid])

    def test_run_twice_deterministic(self):
        a, b = ServingNode(SHED).run(TRACE), ServingNode(SHED).run(TRACE)
        assert a.results_hash() == b.results_hash()
        assert [r.rid for r in a.shed] == [r.rid for r in b.shed]
        assert a.slo_attainment == b.slo_attainment

    def test_default_config_is_unchanged(self):
        """shed_expired defaults off: existing serving runs are
        bit-identical to before the fix."""
        rep = ServingNode(PLAIN).run(TRACE)
        assert len(rep.served) == len(TRACE) and rep.shed == []


class TestAutoscalerSeesLiveBacklog:
    def test_no_decision_counts_an_expired_request(self, monkeypatch):
        """With shedding on, requests past their deadline are shed
        before the autoscaler reads the queue depth, so a dead request
        can never trigger a scale-up."""
        batchers = []

        class Spy(DynamicBatcher):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                batchers.append(self)

        monkeypatch.setattr(service, "DynamicBatcher", Spy)
        sn = ServingNode(SHED)
        decide = sn.autoscaler.decide
        seen = []

        def spy(now, depth, replicas, idle):
            queued = [r for q in batchers[0]._queues.values() for r in q]
            assert len(queued) == depth
            seen.append(sum(now >= r.arrival + TIGHT for r in queued))
            return decide(now, depth, replicas, idle)

        sn.autoscaler.decide = spy
        rep = sn.run(TRACE)
        assert rep.shed and len(seen) > 100
        assert sum(seen) == 0


class TestBatcherUnit:
    def test_expired_heads_are_shed_at_pop(self):
        b = mk(4, slo=2e-3)
        b.enqueue(Request(rid=0, kind="lenet", arrival=0.0, seed=0))
        b.enqueue(Request(rid=1, kind="lenet", arrival=1.9e-3, seed=0))
        # rid 0 is 3 ms old (dead at slo 2 ms); rid 1 is 1.1 ms old —
        # alive, and past max_wait so its batch closes.
        batch = b.pop(now=3.0e-3)
        assert b.shed == 1 and [r.rid for r in b.shed_requests] == [0]
        assert batch is not None and [r.rid for r in batch.requests] == [1]

    def test_no_slo_sheds_nothing(self):
        b = mk(4)
        b.enqueue(Request(rid=0, kind="lenet", arrival=0.0, seed=0))
        batch = b.pop(now=10.0)
        assert b.shed == 0 and [r.rid for r in batch.requests] == [0]

    def test_whole_queue_expired_yields_no_batch(self):
        b = mk(4, slo=1e-3)
        b.enqueue(Request(rid=0, kind="lenet", arrival=0.0, seed=0))
        b.enqueue(Request(rid=1, kind="lenet", arrival=1e-4, seed=0))
        assert b.pop(now=5e-3) is None  # everything dead, nothing formed
        assert b.shed == 2 and b.depth() == 0

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(slo=0.0)
        with pytest.raises(ValueError):
            DynamicBatcher(slo=-1e-3)
