"""Memory Analyzer tests, including the Fig. 3 double-buffering semantics."""

import numpy as np
import pytest

from repro.core import Kernel, Matrix, Scheduler
from repro.errors import AnalysisError
from repro.hardware import GTX_780
from repro.patterns import WRAP, StructuredInjective, Window2D
from repro.sim import SimNode
from repro.utils.rect import Rect


@pytest.fixture
def node():
    return SimNode(GTX_780, 4, functional=False)


@pytest.fixture
def sched(node):
    return Scheduler(node)


def gol_datums(n=64):
    a = Matrix(n, n, np.int32, "A")
    b = Matrix(n, n, np.int32, "B")
    return a, b


KERNEL = Kernel("tick")


class TestFigure3Semantics:
    """Fig. 3: the two AnalyzeCalls of the Game of Life's double buffering."""

    def test_first_call_asymmetric_boxes(self, sched):
        a, b = gol_datums()
        sched.analyze_call(
            KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b)
        )
        an = sched.analyzer
        # A (input, Window2D r=1): four segments WITH boundary rows.
        assert an.box(a, 0) == Rect((-1, 17), (0, 64))
        assert an.box(a, 1) == Rect((15, 33), (0, 64))
        assert an.box(a, 3) == Rect((47, 65), (0, 64))
        # B (output, Structured Injective): exact segments, no boundaries.
        assert an.box(b, 0) == Rect((0, 16), (0, 64))
        assert an.box(b, 2) == Rect((32, 48), (0, 64))

    def test_second_call_grows_b_not_a(self, sched):
        """After the reversed call, B's box gains halo rows while A's
        allocation remains unchanged (right side of Fig. 3)."""
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        a_before = {d: sched.analyzer.box(a, d) for d in range(4)}
        sched.analyze_call(KERNEL, Window2D(b, 1, WRAP), StructuredInjective(a))
        an = sched.analyzer
        for d in range(4):
            # A's output requirement is a subset of its window box.
            assert an.box(a, d) == a_before[d]
            # B's box now includes the boundary rows too.
            assert an.box(b, d) == a_before[d]

    def test_boundary_size_follows_radius(self, sched):
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 3, WRAP), StructuredInjective(b))
        assert sched.analyzer.box(a, 1) == Rect((13, 35), (0, 64))


class TestAllocation:
    def test_one_contiguous_allocation_per_datum_device(self, node, sched):
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.analyze_call(KERNEL, Window2D(b, 1, WRAP), StructuredInjective(a))
        for d in range(4):
            sched.analyzer.buffer(a, d)
            sched.analyzer.buffer(b, d)
            sched.analyzer.buffer(a, d)  # repeated use: no new allocation
        for d in range(4):
            assert node.devices[d].memory.alloc_calls == 2

    def test_allocation_size_is_bounding_box(self, node, sched):
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        buf = sched.analyzer.buffer(a, 0)
        assert buf.nbytes == 18 * 64 * 4  # 16 rows + 2 halo rows, int32
        buf_b = sched.analyzer.buffer(b, 0)
        assert buf_b.nbytes == 16 * 64 * 4

    def test_memory_conserved_vs_full_replication(self, node, sched):
        """§4.2: requirement-based preallocation uses ~1/g of the datum per
        device instead of full duplication."""
        a, b = gol_datums(256)
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        used = sched.analyzer.buffer(a, 0).nbytes
        assert used < a.nbytes / 3  # ~1/4 plus halo

    def test_unanalyzed_invoke_raises(self, sched):
        a, b = gol_datums()
        a.bind(np.zeros(a.shape, a.dtype))
        b.bind(np.zeros(b.shape, b.dtype))
        with pytest.raises(AnalysisError, match="AnalyzeCall"):
            sched.invoke(
                Kernel("tick", func=lambda ctx: None),
                Window2D(a, 1, WRAP),
                StructuredInjective(b),
            )

    def test_requirement_beyond_analysis_raises(self, sched):
        """§4.2 caveat: mismatched patterns at invoke time are an error."""
        a, b = gol_datums()
        a.bind(np.zeros(a.shape, a.dtype))
        b.bind(np.zeros(b.shape, b.dtype))
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        with pytest.raises(AnalysisError):
            sched.invoke(
                Kernel("tick", func=lambda ctx: None),
                Window2D(a, 2, WRAP),  # larger radius than analyzed
                StructuredInjective(b),
            )

    def test_release_frees_memory(self, node, sched):
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        for d in range(4):
            sched.analyzer.buffer(a, d)
        assert node.devices[0].memory.used > 0
        sched.analyzer.release(a)
        assert node.devices[0].memory.used == 0

    def test_allocation_report(self, sched):
        a, b = gol_datums()
        sched.analyze_call(KERNEL, Window2D(a, 1, WRAP), StructuredInjective(b))
        sched.analyzer.buffer(a, 0)
        rep = sched.analyzer.allocation_report()
        assert rep["A"][0] == 18 * 64 * 4

    def test_late_analyze_call_grows_live_buffers(self):
        """An analyze_call that widens a datum's box after its buffer
        exists grows the buffer, contents kept, before the next invoke
        (here B's buffers hold only the first step's output rows when the
        reversed call adds halo rows)."""
        from repro.core.datum import from_array
        from repro.kernels.game_of_life import (
            gol_containers,
            gol_reference_step,
            make_gol_kernel,
        )

        rng = np.random.default_rng(0)
        board = (rng.random((32, 32)) < 0.35).astype(np.int32)
        sched = Scheduler(SimNode(GTX_780, 3, functional=True))
        a = from_array(board.copy(), "late.a")
        b = from_array(np.zeros_like(board), "late.b")
        k = make_gol_kernel()
        for src, dst in ((a, b), (b, a)):
            sched.analyze_call(k, *gol_containers(src, dst, boundary=WRAP))
            sched.invoke(k, *gol_containers(src, dst, boundary=WRAP))
            sched.wait_all()
        assert sched.analyzer.buffer(b, 1).rect.contains(
            sched.analyzer.box(b, 1)
        )
        sched.gather(a)
        ref = gol_reference_step(gol_reference_step(board, wrap=True), wrap=True)
        assert (a.host == ref).all()
