"""Unit tests for the Segment Location Monitor (Algorithm 2)."""

import numpy as np
import pytest

from repro.bench.workloads import TIMING
from repro.core import Scheduler
from repro.core.datum import Matrix
from repro.core.location_monitor import _READ_FLOOR, LocationMonitor
from repro.errors import SchedulingError
from repro.hardware import GTX_780, HOST
from repro.patterns import Aggregation
from repro.sim import SimNode
from repro.sim.commands import Event
from repro.utils.rect import Rect


@pytest.fixture
def datum():
    return Matrix(64, 64, np.float32, "V")


@pytest.fixture
def mon():
    return LocationMonitor()


def rect(b, e, n=64):
    return Rect((b, e), (0, n))


class TestAlgorithm2:
    def test_fresh_datum_copies_from_host(self, mon, datum):
        ops = mon.compute_copies(datum, [rect(0, 16)], target=0)
        assert len(ops) == 1
        assert ops[0].src == HOST and ops[0].dst == 0
        assert ops[0].actual == rect(0, 16)

    def test_up_to_date_target_needs_nothing(self, mon, datum):
        """Lines 2-4: skip if the target already holds the segment."""
        mon.mark_copied(datum, 0, rect(0, 16), None)
        assert mon.compute_copies(datum, [rect(4, 12)], target=0) == []

    def test_partial_coverage_copies_only_missing(self, mon, datum):
        mon.mark_copied(datum, 0, rect(0, 8), None)
        ops = mon.compute_copies(datum, [rect(0, 16)], target=0)
        assert len(ops) == 1
        assert ops[0].actual == rect(8, 16)

    def test_single_location_direct_copy(self, mon, datum):
        """Lines 5-8: whole segment in one device -> one direct copy."""
        ev = Event("w")
        mon.mark_written(datum, 1, rect(0, 32), ev)
        ops = mon.compute_copies(datum, [rect(0, 32)], target=0)
        assert len(ops) == 1
        assert ops[0].src == 1 and ops[0].wait is ev

    def test_segmented_datum_intersections(self, mon, datum):
        """Lines 9-14: segment split across devices -> N-d intersections."""
        e1, e2 = Event("1"), Event("2")
        mon.mark_written(datum, 1, rect(0, 32), e1)
        mon.mark_written(datum, 2, rect(32, 64), e2)
        ops = mon.compute_copies(datum, [rect(24, 40)], target=0)
        srcs = {op.src: op.actual for op in ops}
        assert srcs[1] == rect(24, 32)
        assert srcs[2] == rect(32, 40)

    def test_prefers_peer_devices(self, mon, datum):
        """With the same data on several devices, the preferred (same
        switch) source wins."""
        mon.mark_copied(datum, 2, rect(0, 64), None)
        mon.mark_copied(datum, 1, rect(0, 64), None)
        ops = mon.compute_copies(datum, [rect(0, 16)], target=0, prefer=[1])
        assert ops[0].src == 1

    def test_device_preferred_over_host(self, mon, datum):
        mon.mark_written(datum, 3, rect(0, 16), None)
        ops = mon.compute_copies(datum, [rect(0, 16)], target=0)
        assert ops[0].src == 3

    def test_pending_aggregation_raises(self, mon, datum):
        """Lines 15-17: the aggregation flag blocks direct reads."""
        mon.mark_partial(datum, Aggregation.SUM, {0: None, 1: None})
        with pytest.raises(SchedulingError, match="aggregation"):
            mon.compute_copies(datum, [rect(0, 16)], target=2)

    def test_unavailable_segment_raises(self, mon, datum):
        # Wipe the host instance by writing everywhere then invalidating.
        mon.mark_partial(datum, Aggregation.SUM, {0: None})
        mon.mark_aggregated(datum, None)
        st = mon._st(datum)
        st.up_to_date = {}  # simulate corrupted state
        with pytest.raises(SchedulingError, match="not available"):
            mon.compute_copies(datum, [rect(0, 8)], target=0)


class TestWriteInvalidation:
    def test_write_invalidates_overlapping_instances(self, mon, datum):
        mon.mark_copied(datum, 0, rect(0, 32), None)
        mon.mark_written(datum, 1, rect(16, 48), Event("w"))
        # Device 0 lost rows 16-32; host lost rows 16-48.
        assert mon.instances(datum, 0) == [rect(0, 16)]
        host_rects = mon.instances(datum, HOST)
        assert rect(16, 48) not in host_rects
        assert sum(r.size for r in host_rects) == (64 - 32) * 64

    def test_writer_holds_authoritative_copy(self, mon, datum):
        ev = Event("w")
        mon.mark_written(datum, 2, rect(0, 64), ev)
        ops = mon.compute_copies(datum, [rect(10, 20)], target=3)
        assert ops[0].src == 2 and ops[0].wait is ev

    def test_overlapping_writes_supersede(self, mon, datum):
        mon.mark_written(datum, 0, rect(0, 32), Event("a"))
        mon.mark_written(datum, 0, rect(16, 48), Event("b"))
        insts = mon.instances(datum, 0)
        assert sum(r.size for r in insts) == 48 * 64

    def test_host_dirty_invalidates_devices(self, mon, datum):
        mon.mark_written(datum, 0, rect(0, 64), None)
        mon.mark_host_dirty(datum, 0.0)
        assert mon.instances(datum, 0) == []
        ops = mon.compute_copies(datum, [rect(0, 8)], target=0)
        assert ops[0].src == HOST

    def test_host_dirty_drops_finished_host_reads(self, mon, datum):
        """Host reads done by the modification time can never delay a
        later host writer; unfinished or later ones still can."""
        done, at, late, pending = (Event(n) for n in "datp")
        done.recorded_at, at.recorded_at, late.recorded_at = 1.0, 2.0, 3.0
        for ev in (done, at, late, pending):
            mon.mark_read(datum, HOST, ev)
        mon.mark_read(datum, 0, done)
        mon.mark_host_dirty(datum, 2.0)
        assert mon.take_war_events(datum, HOST) == [late, pending]
        assert mon.take_war_events(datum, 0) == [done]


class TestAggregationState:
    def test_mark_partial_then_aggregated(self, mon, datum):
        mon.mark_partial(datum, Aggregation.SUM, {0: Event("0"), 1: Event("1")})
        assert mon.needs_aggregation(datum)
        mode, sources = mon.aggregation(datum)
        assert mode is Aggregation.SUM and set(sources) == {0, 1}
        mon.mark_aggregated(datum, Event("agg"))
        assert not mon.needs_aggregation(datum)
        assert mon.host_covered(datum)

    def test_mark_partial_requires_mode(self, mon, datum):
        with pytest.raises(SchedulingError):
            mon.mark_partial(datum, Aggregation.NONE, {})

    def test_write_clears_aggregation(self, mon, datum):
        mon.mark_partial(datum, Aggregation.SUM, {0: None})
        mon.mark_written(datum, 0, rect(0, 64), None)
        assert not mon.needs_aggregation(datum)


class TestWarTracking:
    def test_take_war_events(self, mon, datum):
        e1, e2 = Event("r1"), Event("r2")
        mon.mark_read(datum, 0, e1)
        mon.mark_read(datum, 0, e2)
        assert mon.take_war_events(datum, 0) == [e1, e2]
        # Consumed: second take is empty.
        assert mon.take_war_events(datum, 0) == []

    def test_reads_scoped_per_location(self, mon, datum):
        mon.mark_read(datum, 0, Event("r"))
        assert mon.take_war_events(datum, 1) == []


def recorded(label, at):
    ev = Event(label)
    ev.recorded_at = at
    return ev


class TestReadCompaction:
    """Completed reads are dropped once a read list reaches its mark; a
    read recorded at or before the host clock cannot delay a writer."""

    def test_short_lists_keep_every_wait(self, mon, datum):
        evs = [recorded(f"r{i}", 1.0) for i in range(_READ_FLOOR - 1)]
        for ev in evs:
            mon.mark_read(datum, 0, ev, 5.0)
        assert mon.take_war_events(datum, 0) == evs

    def test_compacts_at_the_floor(self, mon, datum):
        done = [recorded(f"d{i}", 1.0) for i in range(_READ_FLOOR - 2)]
        late = recorded("late", 9.0)  # recorded after the host clock
        live = Event("live")  # not yet run
        for ev in (*done, late, live):
            mon.mark_read(datum, 0, ev, 5.0)
        assert mon.take_war_events(datum, 0) == [late, live]

    def test_unfinished_reads_double_the_mark(self, mon, datum):
        live = [Event(f"l{i}") for i in range(3 * _READ_FLOOR)]
        for ev in live:
            mon.mark_read(datum, 0, ev, 5.0)
        st = mon.states()[id(datum)]
        # Compactions at 64 and 128 dropped nothing; next one at 256.
        assert st.read_marks[0] == 4 * _READ_FLOOR
        assert mon.take_war_events(datum, 0) == live
        assert 0 not in st.read_marks

    def test_never_written_datum_stays_bounded(self, mon, datum):
        for i in range(5000):
            mon.mark_read(datum, 0, recorded(f"r{i}", float(i)), float(i))
        assert len(mon.states()[id(datum)].pending_reads[0]) <= _READ_FLOOR

    def test_node_eager_shape_stays_bounded(self):
        """3,000 timing-only iterations of GoL, histogram and chained
        SGEMM on one node, gathering the histogram every 50: the image
        and the weight matrix are read every iteration, never written."""
        node = SimNode(GTX_780, 4, functional=False)
        sched = Scheduler(node)
        loops = [TIMING[w](sched, 1024) for w in TIMING]
        hist = loops[1].out(0)
        for loop in loops:
            loop.warm_up()
        for i in range(1, 3001):
            for loop in loops:
                loop.step(i)
            if i % 50 == 0:
                sched.gather(hist)
        sched.wait_all()
        longest = max(
            len(evs)
            for st in sched.monitor.states().values()
            for evs in st.pending_reads.values()
        )
        assert longest <= 2 * _READ_FLOOR


class Test2DSegments:
    def test_2d_intersection_copy(self, mon, datum):
        """Column-split instances produce genuinely 2-D intersections."""
        mon.mark_written(datum, 1, Rect((0, 64), (0, 32)), None)
        mon.mark_written(datum, 2, Rect((0, 64), (32, 64)), None)
        ops = mon.compute_copies(
            datum, [Rect((10, 20), (16, 48))], target=0
        )
        total = sum(op.actual.size for op in ops)
        assert total == 10 * 32
        assert {op.src for op in ops} == {1, 2}
