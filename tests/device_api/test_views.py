"""Device-level view tests: window semantics, outputs, scalar equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datum import Matrix, Vector, from_array
from repro.device_api import (
    aligned,
    make_view,
    maps_foreach,
    maps_foreach_reductive,
)
from repro.device_api.views import (
    ReductiveStaticView,
    StructuredInjectiveView,
    WindowView,
)
from repro.errors import DeviceError
from repro.hardware import GTX_780
from repro.patterns import (
    WRAP,
    Boundary,
    ReductiveStatic,
    StructuredInjective,
    Window2D,
)
from repro.sim import SimNode
from repro.utils.rect import Rect


def make_window_view(data, work_rect, radius=1, boundary=WRAP):
    """Build a WindowView over a filled device buffer (single device)."""
    datum = from_array(data, "d")
    node = SimNode(GTX_780, 1, functional=True)
    c = Window2D(datum, radius, boundary)
    req = c.required(data.shape, work_rect)
    # Allocate a buffer covering the requirement and fill it as the
    # framework's copies would.
    buf = node.devices[0].memory.allocate(0, req.virtual, data.dtype)
    for virtual, actual in req.pieces:
        buf.view(virtual)[...] = data[actual.slices()]
    return WindowView(c, buf, data.shape, work_rect)


def full_rect(shape):
    return Rect.from_shape(shape)


class TestWindowView:
    def test_center_matches_segment(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        assert (w.center() == data[2:6]).all()

    def test_offsets_interior(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        assert (w.offset(-1, 0) == data[1:5]).all()
        assert (w.offset(1, 0) == data[3:7]).all()

    def test_wrap_columns(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((2, 6), (0, 8)), boundary=WRAP)
        assert (w.offset(0, -1) == np.roll(data, 1, axis=1)[2:6]).all()
        assert (w.offset(0, 1) == np.roll(data, -1, axis=1)[2:6]).all()

    def test_wrap_rows_through_halo(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(data, Rect((0, 4), (0, 8)), boundary=WRAP)
        assert (w.offset(-1, 0)[0] == data[7]).all()

    def test_clamp_rows(self):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        w = make_window_view(
            data, Rect((0, 4), (0, 8)), boundary=Boundary.CLAMP
        )
        assert (w.offset(-1, 0)[0] == data[0]).all()

    def test_zero_rows(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(
            data, Rect((0, 4), (0, 8)), boundary=Boundary.ZERO
        )
        assert (w.offset(-1, 0)[0] == 0).all()

    def test_offset_exceeding_radius(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(data, Rect((2, 6), (0, 8)), radius=1)
        with pytest.raises(DeviceError):
            w.offset(2, 0)

    def test_offset_arity(self):
        data = np.ones((8, 8), np.float32)
        w = make_window_view(data, Rect((2, 6), (0, 8)))
        with pytest.raises(DeviceError):
            w.offset(1)

    def test_neighborhood_sum_equals_manual(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 5, (8, 8)).astype(np.int32)
        w = make_window_view(data, full_rect((8, 8)), boundary=WRAP)
        manual = sum(
            np.roll(np.roll(data, -dy, 0), -dx, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dy, dx) != (0, 0)
        )
        assert (w.neighborhood_sum() == manual).all()

    @given(st.integers(0, 2), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_offsets_match_padded_reference(self, radius, row0, data):
        rows = data.draw(st.integers(1, 8 - row0))
        rng = np.random.default_rng(42)
        arr = rng.integers(0, 100, (8, 8)).astype(np.int32)
        w = make_window_view(
            arr, Rect((row0, row0 + rows), (0, 8)), radius=radius,
            boundary=WRAP,
        )
        padded = np.pad(arr, radius, mode="wrap")
        for dy in (-radius, 0, radius):
            for dx in (-radius, 0, radius):
                ref = padded[
                    radius + row0 + dy : radius + row0 + rows + dy,
                    radius + dx : radius + 8 + dx,
                ]
                assert (w.offset(dy, dx) == ref).all()


class _ViewHarness:
    """Builds matched input/output views over a single simulated device."""

    def __init__(self, data, radius=1, boundary=WRAP, bins=None):
        self.data = data
        self.node = SimNode(GTX_780, 1, functional=True)
        self.in_datum = from_array(data, "in")
        self.win = Window2D(self.in_datum, radius, boundary)
        work = data.shape
        wr = full_rect(work)
        req = self.win.required(work, wr)
        in_buf = self.node.devices[0].memory.allocate(
            0, req.virtual, data.dtype
        )
        for virtual, actual in req.pieces:
            in_buf.view(virtual)[...] = data[actual.slices()]
        self.in_view = WindowView(self.win, in_buf, work, wr)
        if bins is None:
            self.out_datum = Matrix(*data.shape, np.int32, "out")
            c = StructuredInjective(self.out_datum)
            out_buf = self.node.devices[0].memory.allocate(
                0, c.owned(work, wr), np.dtype(np.int32)
            )
            self.out_view = StructuredInjectiveView(c, out_buf, work, wr)
        else:
            self.out_datum = Vector(bins, np.int64, "hist")
            c = ReductiveStatic(self.out_datum)
            out_buf = self.node.devices[0].memory.allocate(
                0, Rect.from_shape((bins,)), np.dtype(np.int64)
            )
            self.out_view = ReductiveStaticView(c, out_buf, work, wr)


class TestScalarVectorizedEquivalence:
    """The MAPS_FOREACH scalar semantics must match the vectorized views."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gol_scalar_equals_vectorized(self, seed):
        rng = np.random.default_rng(seed)
        board = (rng.random((6, 6)) < 0.4).astype(np.int32)

        hv = _ViewHarness(board)
        n = hv.in_view.neighborhood_sum()
        c = hv.in_view.center()
        vec = ((n == 3) | ((c == 1) & (n == 2))).astype(np.int32)

        hs = _ViewHarness(board)
        for it in maps_foreach(hs.out_view):
            win = aligned(hs.in_view, it)
            live = sum(v for v in win) - win.value
            it.set(1 if live == 3 or (win.value == 1 and live == 2) else 0)
        assert (hs.out_view.array == vec).all()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_histogram_scalar_equals_vectorized(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 8, (6, 6)).astype(np.int32)

        hv = _ViewHarness(img, radius=0, boundary=Boundary.NO_CHECKS, bins=8)
        hv.out_view.add_at(hv.in_view.center())
        vec = hv.out_view.partial.copy()

        hs = _ViewHarness(img, radius=0, boundary=Boundary.NO_CHECKS, bins=8)
        for it, acc in maps_foreach_reductive(hs.out_view, hs.in_view):
            it.add(int(acc.value))
        assert (hs.out_view.partial == vec).all()
        assert vec.sum() == img.size


class TestOutputViews:
    def test_structured_write_shape_check(self):
        hv = _ViewHarness(np.zeros((4, 4), np.int32))
        with pytest.raises(DeviceError):
            hv.out_view.write(np.zeros((3, 3), np.int32))

    def test_commit_flag(self):
        hv = _ViewHarness(np.zeros((4, 4), np.int32))
        assert not hv.out_view.committed
        hv.out_view.commit()
        assert hv.out_view.committed

    def test_reductive_weights(self):
        hv = _ViewHarness(
            np.zeros((4, 4), np.int32), radius=0,
            boundary=Boundary.NO_CHECKS, bins=4,
        )
        hv.out_view.add_at(
            np.array([0, 1, 1, 3]), weights=np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert list(hv.out_view.partial) == [1, 5, 0, 4]

    def test_reductive_max_requires_max_container(self):
        hv = _ViewHarness(
            np.zeros((4, 4), np.int32), radius=0,
            boundary=Boundary.NO_CHECKS, bins=4,
        )
        with pytest.raises(DeviceError):
            hv.out_view.max_at(np.array([0]), np.array([1]))


class TestUnheldDatumData:
    """Only positions outside the datum are synthesized zeros: under every
    boundary, an in-datum position the buffer does not hold has no backing
    data (strict mode raises, lenient mode reads zero)."""

    @staticmethod
    def view_parts(boundary, rows):
        data = np.arange(64, dtype=np.int32).reshape(8, 8)
        node = SimNode(GTX_780, 1, functional=True)
        c = Window2D(from_array(data, "m"), 1, boundary)
        buf = node.devices[0].memory.allocate(
            0, Rect((0, rows), (0, 8)), data.dtype
        )
        buf.view(buf.rect)[...] = data[:rows]
        return c, buf

    @pytest.mark.parametrize("boundary", [Boundary.ZERO, Boundary.NO_CHECKS])
    def test_zero_window_raises_for_unheld_row(self, boundary):
        # Datum row 4 (values 32-39) is the padded last row; the buffer
        # holds rows [0, 4). It used to come back as zeros.
        c, buf = self.view_parts(boundary, 4)
        with pytest.raises(
            DeviceError,
            match=r"window position 4 \(dim 0\) has no backing data",
        ):
            make_view(c, buf, (8, 8), Rect((0, 4), (0, 8)))

    @pytest.mark.parametrize("boundary", [WRAP, Boundary.CLAMP])
    def test_wrap_and_clamp_raise_on_the_same_buffer(self, boundary):
        c, buf = self.view_parts(boundary, 4)
        with pytest.raises(DeviceError, match="has no backing data"):
            WindowView(c, buf, (8, 8), Rect((0, 4), (0, 8)))

    def test_lenient_reads_unheld_row_as_zero(self):
        c, buf = self.view_parts(Boundary.ZERO, 5)
        w = WindowView(c, buf, (8, 8), Rect((0, 4), (0, 8)))
        assert (w.offset(1, 0)[-1] == np.arange(32, 40)).all()
        want = Rect((-1, 6), (0, 8))
        with pytest.raises(DeviceError, match=r"window position 5 \(dim 0\)"):
            w._gather(want, lenient=False)
        got = w._gather(want, lenient=True)
        expect = np.zeros((7, 8), np.int32)
        expect[1:6] = np.arange(40, dtype=np.int32).reshape(5, 8)
        assert got.dtype == expect.dtype
        assert (got == expect).all()
