"""Integration tests for the Scheduler (Algorithm 1) on the simulated node."""

import numpy as np
import pytest

from repro.core import Grid, Kernel, Matrix, Scheduler, Vector
from repro.core.unmodified import make_routine
from repro.errors import SchedulingError
from repro.hardware import GTX_780, HOST
from repro.patterns import (
    WRAP,
    Block2D,
    Block2DTransposed,
    Boundary,
    ReductiveDynamic,
    ReductiveStatic,
    StructuredInjective,
    UnstructuredInjective,
    Window2D,
)
from repro.sim import SimNode
from repro.utils.rect import Rect


def make_gol_kernel():
    def gol(ctx):
        cur, nxt = ctx.views
        n = cur.neighborhood_sum()
        c = cur.center()
        nxt.write(((n == 3) | ((c == 1) & (n == 2))).astype(np.int32))
        nxt.commit()

    return Kernel("gol", func=gol)


def gol_reference(board, iters, wrap=True):
    x = board.copy()
    for _ in range(iters):
        if wrap:
            n = sum(
                np.roll(np.roll(x, dy, 0), dx, 1)
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dy, dx) != (0, 0)
            )
        else:
            p = np.pad(x, 1)
            n = sum(
                p[1 + dy : 1 + dy + x.shape[0], 1 + dx : 1 + dx + x.shape[1]]
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dy, dx) != (0, 0)
            )
        x = ((n == 3) | ((x == 1) & (n == 2))).astype(np.int32)
    return x


def run_gol(num_gpus, iters, n=48, boundary=WRAP, seed=1):
    node = SimNode(GTX_780, num_gpus, functional=True)
    sched = Scheduler(node)
    rng = np.random.default_rng(seed)
    board = (rng.random((n, n)) < 0.35).astype(np.int32)
    a = Matrix(n, n, np.int32, "A").bind(board.copy())
    b = Matrix(n, n, np.int32, "B").bind(np.zeros((n, n), np.int32))
    k = make_gol_kernel()
    sched.analyze_call(k, Window2D(a, 1, boundary), StructuredInjective(b))
    sched.analyze_call(k, Window2D(b, 1, boundary), StructuredInjective(a))
    for i in range(iters):
        src, dst = (a, b) if i % 2 == 0 else (b, a)
        sched.invoke(k, Window2D(src, 1, boundary), StructuredInjective(dst))
    out = a if iters % 2 == 0 else b
    sched.gather(out)
    return board, out.host, node, sched


class TestGameOfLifeEndToEnd:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
    def test_wrap_matches_reference(self, num_gpus):
        board, result, _, _ = run_gol(num_gpus, iters=5)
        assert (result == gol_reference(board, 5, wrap=True)).all()

    @pytest.mark.parametrize("num_gpus", [1, 4])
    def test_zero_boundary_matches_reference(self, num_gpus):
        board, result, _, _ = run_gol(num_gpus, 4, boundary=Boundary.ZERO)
        assert (result == gol_reference(board, 4, wrap=False)).all()

    def test_results_identical_across_gpu_counts(self):
        ref = None
        for g in (1, 2, 4):
            _, result, _, _ = run_gol(g, iters=7, seed=3)
            if ref is None:
                ref = result
            else:
                assert (result == ref).all()

    def test_boundary_exchange_is_rows_only(self):
        """Steady-state iterations exchange single halo rows, not whole
        segments: 4 wrap-boundary pairs x 2 directions = 8 row copies."""
        _, _, node, _ = run_gol(4, iters=2, n=64)
        halo_b = [
            r
            for r in node.trace.memcpys()
            if r.src != HOST and r.device != HOST and "copy:B" in r.label
        ]
        assert len(halo_b) == 8
        for r in halo_b:
            assert r.nbytes == 64 * 4  # exactly one row of int32
        # Total P2P traffic is negligible vs. the datum size.
        p2p_bytes = sum(
            r.nbytes
            for r in node.trace.memcpys()
            if r.src != HOST and r.device != HOST
        )
        assert p2p_bytes < 0.2 * 64 * 64 * 4

    def test_no_redundant_copies_when_data_resident(self):
        """Invoking twice with unchanged inputs copies nothing new."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        n = 32
        a = Matrix(n, n, np.int32, "A").bind(np.ones((n, n), np.int32))
        b = Matrix(n, n, np.int32, "B").bind(np.zeros((n, n), np.int32))
        k = make_gol_kernel()
        sched.analyze_call(k, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.invoke(k, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.wait_all()
        n_copies_first = len(node.trace.memcpys())
        sched.invoke(k, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.wait_all()
        assert len(node.trace.memcpys()) == n_copies_first

    def test_gather_only_moves_device_segments(self):
        _, _, node, _ = run_gol(4, iters=1, n=64)
        d2h = [r for r in node.trace.memcpys() if r.device == HOST]
        assert sum(r.nbytes for r in d2h) == 64 * 64 * 4

    def test_simulated_time_positive_and_finite(self):
        _, _, node, _ = run_gol(2, iters=2)
        assert 0 < node.time < 1.0


class TestReductivePattern:
    def _run_hist(self, num_gpus, n=64, bins=16):
        node = SimNode(GTX_780, num_gpus, functional=True)
        sched = Scheduler(node)
        rng = np.random.default_rng(7)
        img = rng.integers(0, bins, size=(n, n)).astype(np.int32)
        image = Matrix(n, n, np.int32, "img").bind(img.copy())
        hist = Vector(bins, np.int64, "hist").bind(np.zeros(bins, np.int64))

        def hist_kernel(ctx):
            win, out = ctx.views
            out.add_at(win.center())
            out.commit()

        k = Kernel("hist", func=hist_kernel)
        win = Window2D(image, 0, Boundary.NO_CHECKS)
        sched.analyze_call(k, win, ReductiveStatic(hist), grid=Grid((n, n)))
        sched.invoke(k, win, ReductiveStatic(hist), grid=Grid((n, n)))
        sched.gather(hist)
        return img, hist.host, node

    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    def test_histogram_aggregation(self, num_gpus):
        img, hist, _ = self._run_hist(num_gpus)
        expected = np.bincount(img.reshape(-1), minlength=16)
        assert (hist == expected).all()
        assert hist.sum() == img.size

    def test_partials_cleared_between_invocations(self):
        """Re-running the task must not double-count (memset before
        accumulate)."""
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n, bins = 32, 8
        img_arr = np.ones((n, n), np.int32)
        image = Matrix(n, n, np.int32, "img").bind(img_arr)
        hist = Vector(bins, np.int64, "hist").bind(np.zeros(bins, np.int64))

        def hk(ctx):
            win, out = ctx.views
            out.add_at(win.center())

        k = Kernel("hist", func=hk)
        win = Window2D(image, 0, Boundary.NO_CHECKS)
        sched.analyze_call(k, win, ReductiveStatic(hist), grid=Grid((n, n)))
        for _ in range(3):
            sched.invoke(k, win, ReductiveStatic(hist), grid=Grid((n, n)))
            sched.gather(hist)
            assert hist.host[1] == n * n

    def test_reading_reductive_output_forces_aggregation(self):
        """A task consuming a pending-aggregation datum triggers the
        gather+aggregate path automatically."""
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n, bins = 32, 8
        image = Matrix(n, n, np.int32, "img").bind(
            np.full((n, n), 3, np.int32)
        )
        hist = Vector(bins, np.float32, "hist").bind(np.zeros(bins, np.float32))
        doubled = Vector(bins, np.float32, "doubled").bind(
            np.zeros(bins, np.float32)
        )

        def hk(ctx):
            win, out = ctx.views
            out.add_at(win.center())

        def dbl(ctx):
            src, dst = ctx.views
            dst.write(src.array[dst.rect.slices()] * 2.0)

        from repro.patterns import Block1D

        k1 = Kernel("hist", func=hk)
        k2 = Kernel("double", func=dbl)
        win = Window2D(image, 0, Boundary.NO_CHECKS)
        sched.analyze_call(k1, win, ReductiveStatic(hist), grid=Grid((n, n)))
        sched.analyze_call(k2, Block1D(hist), StructuredInjective(doubled))
        sched.invoke(k1, win, ReductiveStatic(hist), grid=Grid((n, n)))
        sched.invoke(k2, Block1D(hist), StructuredInjective(doubled))
        sched.gather(doubled)
        assert doubled.host[3] == pytest.approx(2.0 * n * n)


class TestDynamicPattern:
    def test_filter_appends_in_device_order(self):
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        n = 64
        rng = np.random.default_rng(11)
        data = rng.integers(0, 100, size=n).astype(np.int32)
        src = Vector(n, np.int32, "src").bind(data.copy())
        out = Vector(n, np.int32, "out").bind(np.zeros(n, np.int32))

        def filt(ctx):
            inp, dyn = ctx.views
            seg = inp.array[ctx.work_rect.slices()]
            dyn.append(seg[seg >= 50])

        from repro.patterns import Block1D

        k = Kernel("filter", func=filt)
        sched.analyze_call(k, Block1D(src), ReductiveDynamic(out), grid=Grid((n,)))
        sched.invoke(k, Block1D(src), ReductiveDynamic(out), grid=Grid((n,)))
        sched.gather(out)
        expected = data[data >= 50]  # device order == index order
        total = out.dynamic_total
        assert total == expected.size
        assert (out.host[:total] == expected).all()

    def test_combined_overflow_is_a_device_error(self):
        """Every device's appends fit its private buffer but their sum
        overflows the datum: the host aggregation raises DeviceError."""
        from repro.errors import DeviceError
        from repro.patterns import Block1D

        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 8
        src = Vector(n, np.int32, "ovf.src").bind(np.ones(n, np.int32))
        out = Vector(4, np.int32, "ovf.out").bind(np.zeros(4, np.int32))

        def three(ctx):
            inp, dyn = ctx.views
            dyn.append(inp.array[:3])

        k = Kernel("append-three", func=three)
        grid = Grid((n,), block0=1)
        sched.analyze_call(k, Block1D(src), ReductiveDynamic(out), grid=grid)
        sched.invoke(k, Block1D(src), ReductiveDynamic(out), grid=grid)
        with pytest.raises(DeviceError, match="capacity 4"):
            sched.gather(out)


class TestUnstructuredInjective:
    def test_scatter_merge(self):
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 32
        src = Vector(n, np.float32, "src").bind(
            np.arange(n, dtype=np.float32)
        )
        dst = Vector(n, np.float32, "dst").bind(np.zeros(n, np.float32))

        def bitrev(ctx):
            inp, out = ctx.views
            seg = ctx.work_rect[0]
            idx = np.arange(seg.begin, seg.end)
            # 5-bit bit-reversal permutation of a 32-element array.
            rev = np.array(
                [int(format(i, "05b")[::-1], 2) for i in idx]
            )
            out.scatter(rev, inp.array[idx])

        from repro.patterns import Permutation

        k = Kernel("bitrev", func=bitrev)
        args = (Permutation(src), UnstructuredInjective(dst))
        sched.analyze_call(k, *args, grid=Grid((n,)))
        sched.invoke(k, *args, grid=Grid((n,)))
        sched.gather(dst)
        expected = np.zeros(n, np.float32)
        for i in range(n):
            expected[int(format(i, "05b")[::-1], 2)] = i
        assert (dst.host == expected).all()


class TestUnmodifiedRoutines:
    def test_saxpy_routine(self):
        """The Fig. 5 SAXPY wrapper, partitioned over 4 GPUs."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        n = 1 << 10
        rng = np.random.default_rng(5)
        hx = rng.random(n).astype(np.float32)
        hy = rng.random(n).astype(np.float32)
        x = Vector(n, np.float32, "x").bind(hx.copy())
        y = Vector(n, np.float32, "y").bind(hy.copy())

        def saxpy_routine(ctx):
            """Fig. 5's wrapper: alpha from GetConstantParameter, n from
            the container segments, y updated in place (y is read-write,
            so it appears both as an input and as the output; the input
            view aliases the output buffer)."""
            alpha = ctx.constant("alpha")
            n_local = ctx.segment_dims(2)[0]
            xs, ys_in, ys_out = ctx.parameters
            assert n_local == ys_out.shape[0]
            ys_out[...] = alpha * xs + ys_in

        from repro.patterns import NO_CHECKS, Window1D

        routine = make_routine("saxpy", saxpy_routine)
        args = (
            Window1D(x, 0, NO_CHECKS),
            Window1D(y, 0, NO_CHECKS),
            StructuredInjective(y),
        )
        sched.analyze_call(routine, *args, constants={"alpha": 2.0})
        sched.invoke_unmodified(routine, *args, constants={"alpha": 2.0})
        sched.gather(y)
        assert np.allclose(y.host, 2.0 * hx + hy)

    def test_gemm_routine_row_partition(self):
        """C = A @ B with A row-striped (Block 2D), B replicated
        (Block 2D transposed), C structured-injective."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        m, k, n = 64, 32, 48
        rng = np.random.default_rng(9)
        ha = rng.random((m, k)).astype(np.float32)
        hb = rng.random((k, n)).astype(np.float32)
        A = Matrix(m, k, np.float32, "A").bind(ha.copy())
        B = Matrix(k, n, np.float32, "B").bind(hb.copy())
        C = Matrix(m, n, np.float32, "C").bind(np.zeros((m, n), np.float32))

        def gemm_routine(ctx):
            a, b, c = ctx.parameters
            c[...] = a @ b

        routine = make_routine("sgemm", gemm_routine)
        args = (Block2D(A), Block2DTransposed(B), StructuredInjective(C))
        sched.analyze_call(routine, *args)
        sched.invoke_unmodified(routine, *args)
        sched.gather(C)
        assert np.allclose(C.host, ha @ hb, atol=1e-4)

    def test_invoke_unmodified_rejects_pattern_kernels(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        y = Vector(8, np.float32, "y").bind(np.zeros(8, np.float32))
        k = Kernel("notroutine", func=lambda ctx: None)
        with pytest.raises(SchedulingError, match="unmodified"):
            sched.invoke_unmodified(k, StructuredInjective(y))


class TestChainedTasksAcrossDevices:
    def test_producer_consumer_chain(self):
        """Task 2 consumes task 1's distributed output; the location
        monitor infers the inter-GPU copies (none needed: same stripes)."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        n = 64
        a = Vector(n, np.float32, "a").bind(
            np.arange(n, dtype=np.float32)
        )
        b = Vector(n, np.float32, "b").bind(np.zeros(n, np.float32))
        c = Vector(n, np.float32, "c").bind(np.zeros(n, np.float32))

        from repro.patterns import NO_CHECKS, Window1D

        def inc(ctx):
            src, dst = ctx.views
            dst.write(src.center() + 1.0)

        k = Kernel("inc", func=inc)
        sched.analyze_call(k, Window1D(a, 0, NO_CHECKS), StructuredInjective(b))
        sched.analyze_call(k, Window1D(b, 0, NO_CHECKS), StructuredInjective(c))
        sched.invoke(k, Window1D(a, 0, NO_CHECKS), StructuredInjective(b))
        sched.invoke(k, Window1D(b, 0, NO_CHECKS), StructuredInjective(c))
        sched.gather(c)
        # Second task reads b where it was produced: no extra input copies,
        # only the final gather D2H transfers.
        memcpys = node.trace.memcpys()
        inter_task = [
            r for r in memcpys if "copy:b" in r.label and r.device != HOST
        ]
        assert inter_task == []
        assert np.allclose(c.host, np.arange(n) + 2.0)

    def test_shifted_consumer_needs_halo_copies(self):
        """A consumer with a radius-1 window over a distributed producer
        output triggers automatic boundary exchanges."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        n = 64
        a = Vector(n, np.float32, "a").bind(np.arange(n, dtype=np.float32))
        b = Vector(n, np.float32, "b").bind(np.zeros(n, np.float32))
        c = Vector(n, np.float32, "c").bind(np.zeros(n, np.float32))

        from repro.patterns import NO_CHECKS, Window1D, ZERO

        def inc(ctx):
            src, dst = ctx.views
            dst.write(src.center() + 1.0)

        def blur(ctx):
            src, dst = ctx.views
            dst.write(
                (src.offset(-1) + src.center() + src.offset(1)) / 3.0
            )

        k1 = Kernel("inc", func=inc)
        k2 = Kernel("blur", func=blur)
        sched.analyze_call(k1, Window1D(a, 0, NO_CHECKS), StructuredInjective(b))
        sched.analyze_call(k2, Window1D(b, 1, ZERO), StructuredInjective(c))
        sched.invoke(k1, Window1D(a, 0, NO_CHECKS), StructuredInjective(b))
        sched.invoke(k2, Window1D(b, 1, ZERO), StructuredInjective(c))
        sched.gather(c)
        halo = [
            r
            for r in node.trace.memcpys()
            if "copy:b" in r.label and r.device != HOST
        ]
        assert len(halo) == 6  # 3 inner boundaries x 2 directions
        padded = np.pad(np.arange(n, dtype=np.float32) + 1.0, 1)
        expected = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        assert np.allclose(c.host, expected)


class TestSchedulerErrors:
    def test_task_without_output_rejected(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        a = Vector(8, np.float32, "a").bind(np.zeros(8, np.float32))
        from repro.patterns import Block1D

        with pytest.raises(SchedulingError, match="no output"):
            sched.invoke(Kernel("k", func=lambda c: None), Block1D(a))

    def test_task_without_containers_rejected(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        with pytest.raises(SchedulingError):
            sched.invoke(Kernel("k", func=lambda c: None))

    def test_non_container_argument_rejected(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        with pytest.raises(SchedulingError):
            sched.invoke(Kernel("k", func=lambda c: None), np.zeros(4))

    def test_grid_required_without_structured_output(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        h = Vector(8, np.float32, "h").bind(np.zeros(8, np.float32))
        img = Vector(64, np.float32, "i").bind(np.zeros(64, np.float32))
        from repro.patterns import Block1D

        with pytest.raises(SchedulingError, match="grid"):
            sched.invoke(
                Kernel("k", func=lambda c: None),
                Block1D(img),
                ReductiveStatic(h),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="invalid grid shape"):
            Grid((0,))
        with pytest.raises(ValueError, match="invalid grid shape"):
            Grid(())
        with pytest.raises(ValueError, match="invalid grid shape"):
            Grid((64, 0))

    def test_wait_rejects_invalid_handle(self):
        node = SimNode(GTX_780, 1, functional=True)
        sched = Scheduler(node)
        with pytest.raises(SchedulingError, match="invalid task handle"):
            sched.wait(None)
        with pytest.raises(SchedulingError, match="invalid task handle"):
            sched.wait("not-a-handle")

    @pytest.mark.parametrize("entry", [
        "invoke", "analyze_call", "wait", "wait_all", "gather",
        "gather_region",
    ])
    def test_released_scheduler_refuses_to_be_driven(self, entry):
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 16
        a = Matrix(n, n, np.int32, "A").bind(np.ones((n, n), np.int32))
        b = Matrix(n, n, np.int32, "B").bind(np.zeros((n, n), np.int32))
        k = make_gol_kernel()
        containers = (Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.analyze_call(k, *containers)
        handle = sched.invoke(k, *containers)  # still queued at release
        sched.release()
        calls = {
            "invoke": lambda: sched.invoke(k, *containers),
            "analyze_call": lambda: sched.analyze_call(k, *containers),
            "wait": lambda: sched.wait(handle),
            "wait_all": sched.wait_all,
            "gather": lambda: sched.gather(b),
            "gather_region": lambda: sched.gather_region(
                b, Rect.from_shape((4, n))
            ),
        }
        with pytest.raises(SchedulingError, match="released"):
            calls[entry]()

    def test_unanalyzed_invoke_raises_analysis_error(self):
        from repro.errors import AnalysisError

        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)  # auto_analyze off: AnalyzeCall is required
        a = Matrix(16, 16, np.int32, "a").bind(np.zeros((16, 16), np.int32))
        b = Matrix(16, 16, np.int32, "b").bind(np.zeros((16, 16), np.int32))
        kernel = make_gol_kernel()
        with pytest.raises(AnalysisError, match="never analyzed"):
            sched.invoke(kernel, Window2D(a, 1, WRAP), StructuredInjective(b))


class TestStreams:
    def test_streams_only_on_the_schedulers_devices(self):
        """A lease on 2 of 4 GPUs makes a compute, copy-in and copy-out
        stream on each of its GPUs and one host stream; its release drops
        exactly those."""
        node = SimNode(GTX_780, 4, functional=False)
        other = Scheduler(node, devices=(0,))
        kept = list(node.streams)
        sched = Scheduler(node, devices=(1, 3))
        mine = node.streams[len(kept):]
        assert len(mine) == 7
        assert sorted(s.device for s in mine if s.device != HOST) == [
            1, 1, 1, 3, 3, 3
        ]
        assert [s.id for s in mine] == sorted(s.id for s in mine)
        sched.release()
        assert node.streams == kept
        other.release()
        assert node.streams == []


class TestPaperAliases:
    def test_camelcase_api(self):
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        n = 16
        a = Matrix(n, n, np.int32, "A").bind(np.ones((n, n), np.int32))
        b = Matrix(n, n, np.int32, "B").bind(np.zeros((n, n), np.int32))
        k = make_gol_kernel()
        sched.AnalyzeCall(k, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.Invoke(k, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.Gather(b)
        sched.WaitAll()
        assert (b.host == 0).all()  # all-ones board dies everywhere
