"""Tests for the regional gather / regional host-dirty public API."""

import re

import numpy as np
import pytest

import repro.core.scheduler as scheduler_mod
from repro.core import Grid, Kernel, Scheduler, Vector
from repro.core.location_monitor import LocationMonitor
from repro.core.plan import NodeTables
from repro.errors import SchedulingError
from repro.hardware import GTX_780
from repro.hardware.topology import HOST
from repro.patterns import (
    NO_CHECKS,
    BlockStriped,
    InjectiveStriped,
    ReductiveStatic,
    StructuredInjective,
    Window1D,
)
from repro.sim import SimNode
from repro.utils.rect import Rect


def fill_kernel(value):
    def body(ctx):
        (dst,) = ctx.views
        dst.write(np.full(dst.array.shape, value, dst.array.dtype))

    return Kernel("fill", func=body)


@pytest.fixture
def setup():
    node = SimNode(GTX_780, 4, functional=True)
    sched = Scheduler(node)
    n = 64
    v = Vector(n, np.float32, "v").bind(np.zeros(n, np.float32))
    k = fill_kernel(7.0)
    grid = Grid((n,), block0=1)
    sched.analyze_call(k, InjectiveStriped(v), grid=grid)
    sched.invoke(k, InjectiveStriped(v), grid=grid)
    return node, sched, v


class TestGatherRegion:
    def test_region_lands_on_host(self, setup):
        node, sched, v = setup
        sched.gather_region(v, Rect((8, 24)))
        sched.wait_all()
        assert (v.host[8:24] == 7.0).all()
        assert (v.host[:8] == 0.0).all()  # rest untouched

    def test_region_moves_fewer_bytes_than_full_gather(self, setup):
        node, sched, v = setup
        sched.wait_all()
        before = node.trace.total_bytes_copied()
        sched.gather_region(v, Rect((0, 8)))
        sched.wait_all()
        assert node.trace.total_bytes_copied() - before == 8 * 4

    def test_repeated_region_gather_is_free(self, setup):
        node, sched, v = setup
        sched.gather_region(v, Rect((0, 16)))
        sched.wait_all()
        before = node.trace.total_bytes_copied()
        sched.gather_region(v, Rect((0, 16)))
        sched.wait_all()
        assert node.trace.total_bytes_copied() == before

    def test_pending_aggregation_rejected(self):
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 16
        src = Vector(n, np.float32, "s").bind(np.ones(n, np.float32))
        acc = Vector(n, np.float32, "acc").bind(np.zeros(n, np.float32))

        def produce(ctx):
            inp, red = ctx.views
            red.partial[...] += inp.center()

        k = Kernel("p", func=produce)
        grid = Grid((n,), block0=1)
        args = (Window1D(src, 0, NO_CHECKS), ReductiveStatic(acc))
        sched.analyze_call(k, *args, grid=grid)
        sched.invoke(k, *args, grid=grid)
        with pytest.raises(SchedulingError, match="whole"):
            sched.gather_region(acc, Rect((0, 4)))


class TestRegionValidation:
    """Out-of-bounds or wrong-rank regions must be rejected up front:
    silently accepting one would poison the location monitor with regions
    that cannot exist and index past the bound host buffer."""

    def test_gather_region_out_of_bounds_rejected(self, setup):
        _, sched, v = setup
        with pytest.raises(SchedulingError, match="out of bounds"):
            sched.gather_region(v, Rect((32, 100)))

    def test_gather_region_negative_start_rejected(self, setup):
        _, sched, v = setup
        with pytest.raises(SchedulingError, match="out of bounds"):
            sched.gather_region(v, Rect((-4, 8)))

    def test_gather_region_wrong_rank_rejected(self, setup):
        _, sched, v = setup
        with pytest.raises(SchedulingError, match="dims"):
            sched.gather_region(v, Rect((0, 8), (0, 8)))

    def test_mark_dirty_out_of_bounds_rejected(self, setup):
        _, sched, v = setup
        sched.gather(v)
        with pytest.raises(SchedulingError, match="out of bounds"):
            sched.mark_host_region_dirty(v, Rect((60, 65)))

    def test_mark_dirty_wrong_rank_rejected(self, setup):
        _, sched, v = setup
        with pytest.raises(SchedulingError, match="dims"):
            sched.mark_host_region_dirty(v, Rect((0, 4), (0, 4)))

    def test_empty_region_is_accepted(self, setup):
        _, sched, v = setup
        sched.gather_region(v, Rect((8, 8)))  # no-op, not an error
        sched.wait_all()


class TestMarkHostRegionDirty:
    def test_devices_refetch_dirty_region_only(self, setup):
        node, sched, v = setup
        sched.gather(v)
        # Application overwrites rows 16-32 on the host.
        v.host[16:32] = -1.0
        sched.mark_host_region_dirty(v, Rect((16, 32)))

        def double(ctx):
            src, dst = ctx.views
            dst.write(src.center() * 2.0)

        out = Vector(64, np.float32, "out").bind(np.zeros(64, np.float32))
        k = Kernel("double", func=double)
        args = (Window1D(v, 0, NO_CHECKS), StructuredInjective(out))
        sched.analyze_call(k, *args)
        before = node.trace.total_bytes_copied()
        sched.invoke(k, *args)
        sched.gather(out)
        # Only the dirty region (plus the gather of `out`) moved.
        moved = node.trace.total_bytes_copied() - before
        assert moved == 16 * 4 + 64 * 4
        expected = np.full(64, 14.0, np.float32)
        expected[16:32] = -2.0
        assert (out.host == expected).all()

    def test_clean_regions_stay_resident(self, setup):
        node, sched, v = setup
        sched.gather(v)
        sched.mark_host_region_dirty(v, Rect((0, 4)))
        insts = sched.monitor.instances(v, 1)
        # Device 1's stripe (rows 16-32) survives untouched.
        assert any(r.contains(Rect((16, 32))) for r in insts)


def inc_kernel():
    def body(ctx):
        src, dst = ctx.views
        dst.write(src.center() + 1.0)

    return Kernel("inc", func=body)


def normalized_trace(node):
    return [
        (r.kind, re.sub(r"#\d+", "#N", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]


@pytest.fixture
def host_plans(monkeypatch):
    """Count Algorithm 2 runs that target the host (gather planning)."""
    calls = []
    compute = LocationMonitor.compute_copies

    def counted(self, datum, required, target, prefer=()):
        if target == HOST:
            calls.append(datum.name)
        return compute(self, datum, required, target, prefer)

    monkeypatch.setattr(LocationMonitor, "compute_copies", counted)
    return calls


def ping_pong(plan_cache, regions, between=None):
    """``b = a + 1; a = b + 1`` on 4 GPUs; after each invocation, gather
    the next region of the freshly written vector. Every write leaves the
    same residency geometry, so region gathers revisit one state."""
    node = SimNode(GTX_780, 4, functional=True)
    sched = Scheduler(node, plan_cache=plan_cache)
    n = 64
    a = Vector(n, np.float32, "a").bind(np.zeros(n, np.float32))
    b = Vector(n, np.float32, "b").bind(np.zeros(n, np.float32))
    k = inc_kernel()
    pair = [a, b]
    for i, region in enumerate(regions):
        src, dst = pair[i % 2], pair[(i + 1) % 2]
        args = (Window1D(src, 0, NO_CHECKS), InjectiveStriped(dst))
        if i < 2:
            sched.analyze_call(k, *args)
        sched.invoke(k, *args)
        sched.gather_region(dst, region)
        sched.wait_all()
        # The gathered region holds this iteration's value.
        assert (dst.host[region.slices()] == i + 1).all()
        if between is not None:
            between(sched, dst, region, i)
    return node, sched, (a.host.copy(), b.host.copy())


class TestGatherMemo:
    """Region gathers replay memoized copy decisions per (residency
    state, target rect) from the node's tables (``_copy_ops``); the
    uncached scheduler is the oracle."""

    def test_repeated_gather_replays_oracle_copies(self, host_plans):
        regions = [Rect((8, 24))] * 6
        node, sched, out = ping_pong(True, regions)
        cached_plans = len(host_plans)
        oracle, _, want = ping_pong(False, regions)
        assert normalized_trace(node) == normalized_trace(oracle)
        assert all((x == y).all() for x, y in zip(out, want))
        # State ids are geometry only, so both vectors share one state:
        # the first gather is planned and every later one replays it. The
        # oracle plans every gather and memoizes nothing.
        assert cached_plans == 1
        assert len(host_plans) - cached_plans == len(regions)
        assert len(NodeTables.of(node).gathers) == 1
        assert oracle.plan_tables is None

    def test_other_region_same_state_is_planned(self, host_plans):
        regions = [Rect((8, 24)), Rect((8, 24)), Rect((0, 8)), Rect((0, 8)),
                   Rect((40, 64)), Rect((20, 44))]
        node, _, out = ping_pong(True, regions)
        cached_plans = len(host_plans)
        oracle, _, want = ping_pong(False, regions)
        assert normalized_trace(node) == normalized_trace(oracle)
        assert all((x == y).all() for x, y in zip(out, want))
        assert cached_plans == len(set(regions))  # one plan per region

    def test_host_region_dirty_forces_replanning(self, host_plans):
        def overwrite(sched, dst, region, i):
            # The application owns the region now: a re-gather must not
            # replay the device-to-host copies it planned a moment ago.
            dst.host[region.slices()] = -5.0
            sched.mark_host_region_dirty(dst, region)
            before = len(sched.node.trace.memcpys())
            sched.gather_region(dst, region)
            sched.wait_all()
            assert len(sched.node.trace.memcpys()) == before
            assert (dst.host[region.slices()] == -5.0).all()
            dst.host[region.slices()] = i + 1  # restore for the next read
            sched.mark_host_region_dirty(dst, region)

        regions = [Rect((8, 24))] * 4
        node, _, out = ping_pong(True, regions, overwrite)
        # One plan for the clean state, one for the dirty one; later
        # iterations replay both.
        assert len(host_plans) == 2
        oracle, _, want = ping_pong(False, regions, overwrite)
        assert normalized_trace(node) == normalized_trace(oracle)
        assert all((x == y).all() for x, y in zip(out, want))

    def test_pending_partials_still_raise(self):
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 16
        src = Vector(n, np.float32, "s").bind(np.ones(n, np.float32))
        acc = Vector(n, np.float32, "acc").bind(np.zeros(n, np.float32))

        def produce(ctx):
            inp, red = ctx.views
            red.partial[...] += inp.center().sum()

        k = Kernel("p", func=produce)
        grid = Grid((n,), block0=1)
        args = (Window1D(src, 0, NO_CHECKS), ReductiveStatic(acc))
        sched.analyze_call(k, *args, grid=grid)
        region = Rect((0, 4))
        for _ in range(2):
            sched.gather_region(acc, region)  # memoized in a clean state
            sched.wait_all()
            sched.invoke(k, *args, grid=grid)
            with pytest.raises(SchedulingError, match="whole"):
                sched.gather_region(acc, region)
            sched.gather(acc)
        assert NodeTables.of(node).gathers
        assert (acc.host == n).all()

    def test_node_table_is_bounded(self, monkeypatch, setup):
        monkeypatch.setattr(scheduler_mod, "COPY_MEMO_LIMIT", 8)
        node, sched, v = setup
        for i in range(20):
            sched.gather_region(v, Rect((i, i + 1)))
        sched.wait_all()
        assert len(NodeTables.of(node).gathers) == 8
        assert (v.host[:20] == 7.0).all()
