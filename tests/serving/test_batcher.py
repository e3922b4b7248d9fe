"""Dynamic batcher: full-or-expired closing, FIFO urgency, counters."""

import pytest

from repro.serving import DynamicBatcher, Request


def req(rid, kind="lenet", arrival=0.0):
    return Request(rid=rid, kind=kind, arrival=arrival, seed=rid)


def mk(max_batch, max_wait):
    """A batcher with its wait overridden on the instance."""
    b = DynamicBatcher(max_batch)
    b.max_wait = max_wait
    return b


class TestClosing:
    def test_full_batch_closes_immediately(self):
        b = mk(4, 1.0)
        for i in range(4):
            b.enqueue(req(i))
        batch = b.pop(now=0.0)
        assert batch is not None
        assert [r.rid for r in batch.requests] == [0, 1, 2, 3]
        assert b.depth() == 0

    def test_partial_batch_waits_for_max_wait(self):
        b = mk(4, 0.01)
        b.enqueue(req(0, arrival=0.0))
        assert b.pop(now=0.005) is None
        batch = b.pop(now=0.01)
        assert batch is not None and len(batch) == 1

    def test_overfull_queue_closes_in_max_batch_chunks(self):
        b = mk(3, 1.0)
        for i in range(7):
            b.enqueue(req(i))
        sizes = []
        batch = b.pop(0.0)
        while batch is not None:
            sizes.append(len(batch))
            batch = b.pop(1e9)
        assert sizes == [3, 3, 1]

    def test_kinds_never_mix_in_one_batch(self):
        b = mk(8, 0.0)
        b.enqueue(req(0, kind="lenet"))
        b.enqueue(req(1, kind="sgemm"))
        first, second = b.pop(0.0), b.pop(0.0)
        assert {first.kind, second.kind} == {"lenet", "sgemm"}
        assert len(first) == len(second) == 1


class TestUrgency:
    def test_earliest_head_arrival_wins_across_kinds(self):
        b = mk(2, 0.0)
        b.enqueue(req(0, kind="sgemm", arrival=0.1))
        b.enqueue(req(1, kind="lenet", arrival=0.2))
        assert b.pop(1.0).kind == "sgemm"

    def test_next_deadline_tracks_oldest_head(self):
        b = mk(8, 0.5)
        assert b.next_deadline() is None
        b.enqueue(req(0, arrival=0.2))
        b.enqueue(req(1, kind="sgemm", arrival=0.1))
        assert b.next_deadline() == pytest.approx(0.6)


class TestCounters:
    def test_mean_batch(self):
        b = mk(4, 0.0)
        for i in range(6):
            b.enqueue(req(i))
        while b.pop(0.0) is not None:
            pass
        assert b.enqueued == 6
        assert b.batches == 2
        assert b.mean_batch == pytest.approx(3.0)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=0)
