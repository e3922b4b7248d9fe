"""Per-violation-class tests for the pattern-conformance sanitizer.

Each violation class gets at least one test that asserts the *typed*
SanitizerError and inspects the report it carries (offending task,
container, segment, observed rect, declared bound).
"""

import numpy as np
import pytest

from repro.core.datum import Vector, from_array
from repro.core.grid import Grid
from repro.core.task import Kernel
from repro.kernels import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
    make_scale_kernel,
)
from repro.kernels.game_of_life import (
    gol_containers,
    make_gol_kernel,
    make_gol_oob_kernel,
)
from repro.patterns import (
    NO_CHECKS,
    WRAP,
    Permutation,
    ReductiveDynamic,
    StructuredInjective,
    UnstructuredInjective,
    Window1D,
)
from repro.sanitize import (
    OutOfPatternReadError,
    OutOfRegionWriteError,
    SanitizeSession,
    UnaggregatedReadError,
    WriteRaceError,
    sanitize_task,
)
from repro.utils.rect import Rect


def board(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, n)) < 0.35).astype(np.int32)


class TestOutOfPatternRead:
    def test_over_radius_stencil_is_caught(self):
        a = from_array(board(), "t.a")
        b = from_array(np.zeros((16, 16), np.int32), "t.b")
        with pytest.raises(OutOfPatternReadError) as ei:
            sanitize_task(
                make_gol_oob_kernel(),
                *gol_containers(a, b, variant="naive", boundary=WRAP),
                segments=2,
            )
        e = ei.value
        assert e.task.startswith("gol-oob")
        assert e.container_index == 0
        assert e.datum == "t.a"
        assert e.segment == 0
        # The report names the observed region and the declared bound.
        assert isinstance(e.rect, Rect)
        assert isinstance(e.declared, Rect)
        assert not e.declared.contains(e.rect)
        assert "radius" in str(e)

    def test_report_carries_rect_outside_declared_window(self):
        """The offending rect is the center shifted by the bad offset."""
        n = 16
        x = from_array(np.arange(n, dtype=np.float32), "w.x")
        y = Vector(n, np.float32, "w.y").bind(np.zeros(n, np.float32))

        def body(ctx):
            xin, out = ctx.views
            out.write(xin.offset(3))  # declared radius is 1

        with pytest.raises(OutOfPatternReadError) as ei:
            sanitize_task(
                Kernel("shift3", func=body),
                Window1D(x, 1, NO_CHECKS),
                StructuredInjective(y),
                grid=Grid((n,)),
                segments=2,
            )
        e = ei.value
        # Segment 0 covers work [0, 8); shifted by +3 → [3, 11).
        assert e.rect == Rect((3, 11))
        assert e.declared == Rect((-1, 9))


class TestOutOfRegionWrite:
    def test_reduction_bins_past_extent(self):
        rng = np.random.default_rng(1)
        image = from_array(
            rng.integers(0, 256, (16, 16), dtype=np.int64), "h.img"
        )
        hist = Vector(256, np.int64, "h.out").bind(np.zeros(256, np.int64))

        def body(ctx):
            img, h = ctx.views
            h.add_at(img.center() + 200)

        with pytest.raises(OutOfRegionWriteError) as ei:
            sanitize_task(
                Kernel("hist-shift", func=body),
                *histogram_containers(image, hist),
                grid=histogram_grid(image),
                segments=2,
            )
        e = ei.value
        assert e.datum == "h.out"
        assert e.declared == Rect((0, 256))
        assert e.rect[0].end > 256  # offending bins are past the extent

    def test_negative_scatter_index(self):
        """Regression: negative flat indices used to wrap silently via
        python indexing, corrupting the duplicate's tail."""
        n = 8
        src = from_array(np.arange(n, dtype=np.float32), "s.src")
        dst = Vector(n, np.float32, "s.dst").bind(np.zeros(n, np.float32))

        def body(ctx):
            inp, out = ctx.views
            out.scatter(np.array([-1]), inp.array[:1])

        with pytest.raises(OutOfRegionWriteError) as ei:
            sanitize_task(
                Kernel("scatter-neg", func=body),
                Permutation(src), UnstructuredInjective(dst),
                grid=Grid((n,)),
                segments=1,
            )
        assert ei.value.rect[0].begin == -1

    def test_dynamic_append_overflow(self):
        n = 8
        x = from_array(np.ones(n, np.float32), "d.x")
        out = Vector(4, np.float32, "d.out").bind(np.zeros(4, np.float32))

        def body(ctx):
            xin, dyn = ctx.views
            dyn.append(xin.center())  # every segment appends its share,
            dyn.append(xin.center())  # then doubles it → overflow

        with pytest.raises(OutOfRegionWriteError) as ei:
            sanitize_task(
                Kernel("append-too-much", func=body),
                Window1D(x, 0, NO_CHECKS), ReductiveDynamic(out),
                grid=Grid((n,)),
                segments=1,
            )
        assert ei.value.declared == 4

    def test_combined_append_overflow_keeps_what_fits(self):
        """Each segment's appends fit, their sum does not: collect mode
        reports it and the aggregate keeps the first ``capacity``."""
        n = 8
        x = from_array(np.ones(n, np.float32), "d2.x")
        out = Vector(4, np.float32, "d2.out").bind(np.zeros(4, np.float32))

        def body(ctx):
            xin, dyn = ctx.views
            dyn.append(xin.center()[:3])

        report = sanitize_task(
            Kernel("append-each-fits", func=body),
            Window1D(x, 0, NO_CHECKS), ReductiveDynamic(out),
            grid=Grid((n,), block0=1),
            segments=2,
            strict=False,
        )
        assert [type(e) for e in report.errors] == [OutOfRegionWriteError]
        assert out.dynamic_total == 4
        assert (out.host == 1).all()


class TestWriteRace:
    def test_colliding_scatter_indices(self):
        n = 16
        src = from_array(np.arange(n, dtype=np.float32), "r.src")
        dst = Vector(n, np.float32, "r.dst").bind(np.zeros(n, np.float32))

        def body(ctx):
            inp, out = ctx.views
            out.scatter(np.array([5]), inp.array[:1])

        with pytest.raises(WriteRaceError) as ei:
            sanitize_task(
                Kernel("collide", func=body),
                Permutation(src), UnstructuredInjective(dst),
                grid=Grid((n,)),
                segments=2,
            )
        e = ei.value
        assert e.datum == "r.dst"
        assert "index 5" in str(e)

    def test_disjoint_scatter_is_clean(self):
        n = 16
        src = from_array(np.arange(n, dtype=np.float32), "c.src")
        dst = Vector(n, np.float32, "c.dst").bind(np.zeros(n, np.float32))

        def body(ctx):
            inp, out = ctx.views
            lo, hi = ctx.work_rect[0].begin, ctx.work_rect[0].end
            idx = np.arange(lo, hi)
            out.scatter(n - 1 - idx, inp.array[idx])

        report = sanitize_task(
            Kernel("reverse", func=body),
            Permutation(src), UnstructuredInjective(dst),
            grid=Grid((n,)),
            segments=4,
        )
        assert report.clean


class TestUnaggregatedRead:
    def test_reading_pending_partials(self):
        rng = np.random.default_rng(2)
        image = from_array(
            rng.integers(0, 256, (16, 16), dtype=np.int64), "u.img"
        )
        hist = Vector(256, np.int64, "u.h").bind(np.zeros(256, np.int64))
        out = Vector(256, np.int64, "u.o").bind(np.zeros(256, np.int64))
        session = SanitizeSession(segments=2)
        session.run(
            make_histogram_kernel("maps"),
            *histogram_containers(image, hist),
            grid=histogram_grid(image),
        )
        with pytest.raises(UnaggregatedReadError) as ei:
            session.run(
                make_scale_kernel(),
                Window1D(hist, 0, NO_CHECKS), StructuredInjective(out),
                constants={"alpha": 1},
            )
        assert ei.value.datum == "u.h"

    def test_aggregate_clears_pending(self):
        rng = np.random.default_rng(3)
        image = from_array(
            rng.integers(0, 256, (16, 16), dtype=np.int64), "u2.img"
        )
        hist = Vector(256, np.int64, "u2.h").bind(np.zeros(256, np.int64))
        out = Vector(256, np.int64, "u2.o").bind(np.zeros(256, np.int64))
        session = SanitizeSession(segments=2)
        session.run(
            make_histogram_kernel("maps"),
            *histogram_containers(image, hist),
            grid=histogram_grid(image),
        )
        session.aggregate(hist)
        report = session.run(
            make_scale_kernel(),
            Window1D(hist, 0, NO_CHECKS), StructuredInjective(out),
            constants={"alpha": 1},
        )
        assert report.clean


class TestNonStrictMode:
    def test_errors_collected_not_raised(self):
        a = from_array(board(seed=4), "ns.a")
        b = from_array(np.zeros((16, 16), np.int32), "ns.b")
        report = sanitize_task(
            make_gol_oob_kernel(),
            *gol_containers(a, b, variant="naive", boundary=WRAP),
            segments=2,
            strict=False,
        )
        assert not report.clean
        assert all(
            isinstance(e, OutOfPatternReadError) for e in report.errors
        )
        # One violation per segment that ran the bad offset.
        assert report.segments == 2
        assert len(report.errors) == 2

    def test_report_lists_segment_errors_and_race(self):
        """Collect mode keeps every violation of a task: each segment's
        out-of-pattern read and the cross-segment scatter race."""
        n = 16
        x = from_array(np.arange(n, dtype=np.float32), "mix.x")
        dst = Vector(n, np.float32, "mix.dst").bind(np.zeros(n, np.float32))

        def body(ctx):
            xin, out = ctx.views
            xin.offset(3)  # declared radius is 1
            out.scatter(np.array([0]), xin.center()[:1])

        report = sanitize_task(
            Kernel("read-and-collide", func=body),
            Window1D(x, 1, NO_CHECKS), UnstructuredInjective(dst),
            grid=Grid((n,)),
            segments=2,
            strict=False,
        )
        kinds = [type(e) for e in report.errors]
        assert kinds.count(OutOfPatternReadError) == 2
        assert kinds.count(WriteRaceError) == 1
        assert sorted(
            e.segment for e in report.errors
            if isinstance(e, OutOfPatternReadError)
        ) == [0, 1]


class TestRepeatedRuns:
    def test_one_analyzed_task_per_binding(self):
        """Each run analyzes its task again; the scheduler keeps one
        recovery entry per binding, in first-analysis order, so 50 runs
        alternating a GoL step a->b and b->a leave two."""
        session = SanitizeSession(segments=2)
        a = from_array(board(), "rep.a")
        b = from_array(np.zeros_like(a.host), "rep.b")
        kernel = make_gol_kernel()
        for i in range(50):
            src, dst = (a, b) if i % 2 == 0 else (b, a)
            session.run(kernel, *gol_containers(src, dst))
        analyzed = session.sched._analyzed
        assert len(analyzed) == 2
        assert [t.containers[0].datum for t, _ in analyzed.values()] == [a, b]
