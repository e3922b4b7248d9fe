"""The window view against its reference bodies (``views_oracle.py``).

Seeded random cases cover 1-3-D data, every boundary, radii 0-2 and
buffers that hold the framework's halo, a partial dimension, the full
period of a wrapped dimension plus retained halo images (as after
recovery grows a buffer), or an arbitrary extent. Buffer contents are
random per position, so a stale halo image picked instead of the
in-datum one shows. Arrays must match in dtype, shape and bytes, and
errors in type and message, in strict and lenient mode. The one allowed
difference is the ZERO/NO_CHECKS rule (an in-datum position the buffer
does not hold raises instead of reading zero), asserted explicitly.
"""

import itertools
import re

import numpy as np
import pytest

from repro.core.datum import from_array
from repro.device_api import views
from repro.device_api.views import WindowView
from repro.errors import DeviceError
from repro.patterns import Boundary, WindowND
from repro.sanitize.recorder import AccessRecorder
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Interval, Rect

from tests.device_api import views_oracle as oracle

DTYPES = (np.int32, np.float32, np.float64, np.uint8, np.bool_)
BUFFER_KINDS = ("halo", "partial", "period", "random")
NO_BACKING = re.compile(
    r"window position (-?\d+) \(dim (\d+)\) has no backing data in buffer "
    r"extent .* \(boundary (\w+)\)$"
)


def random_values(rng, shape, dtype):
    if dtype is np.bool_:
        return rng.random(shape) < 0.5
    if np.issubdtype(dtype, np.floating):
        return rng.standard_normal(shape).astype(dtype)
    return rng.integers(0, 200, shape).astype(dtype)


def buffer_interval(rng, kind, need: Interval, n: int) -> Interval:
    if kind == "halo":
        return need
    if kind == "partial" and need.size > 1:
        drop = int(rng.integers(1, need.size))
        if rng.random() < 0.5:
            return Interval(need.begin + drop, need.end)
        return Interval(need.begin, need.end - drop)
    if kind == "period":
        g = int(rng.integers(0, 3))
        return need.hull(Interval(-g, n + g))
    lo = int(rng.integers(-3, n + 1))
    return Interval(lo, int(rng.integers(lo + 1, n + 4)))


def random_case(rng, wide=False):
    """(container, buffer, work shape, work rect) of one random view."""
    ndim = int(rng.integers(1, 4))
    shape = [int(rng.integers(1, 11)) for _ in range(ndim)]
    if wide:
        shape[int(rng.integers(ndim))] = 8192
    shape = tuple(shape)
    radius = tuple(int(rng.integers(0, 3)) for _ in range(ndim))
    boundary = list(Boundary)[int(rng.integers(4))]
    dtype = DTYPES[int(rng.integers(len(DTYPES)))]
    work_shape = tuple(
        n // 2 if n % 2 == 0 and rng.random() < 0.25 else n for n in shape
    )
    ivals = []
    for w in work_shape:
        b = int(rng.integers(0, w))
        ivals.append((b, int(rng.integers(b + 1, w + 1))))
    work_rect = Rect(*ivals)
    container = WindowND(
        from_array(np.zeros(shape, dtype), "w"), radius, boundary
    )
    need = container.required(work_shape, work_rect).virtual
    kind = BUFFER_KINDS[int(rng.integers(len(BUFFER_KINDS)))]
    rect = Rect(*[
        buffer_interval(rng, kind, need[d], shape[d]) for d in range(ndim)
    ])
    buf = DeviceBuffer(
        0, rect, np.dtype(dtype), random_values(rng, rect.shape, dtype)
    )
    return container, buf, work_shape, work_rect


def outcome(fn):
    try:
        return fn(), None
    except DeviceError as e:
        return None, e


def assert_zero_rule(err, boundary, buffer, shape):
    """The allowed difference: a ZERO/NO_CHECKS position inside the datum
    that the buffer does not hold raises (the oracle read zero)."""
    assert boundary in (Boundary.ZERO, Boundary.NO_CHECKS)
    m = NO_BACKING.match(str(err))
    assert m, str(err)
    v, d = int(m.group(1)), int(m.group(2))
    assert m.group(3) == boundary.value
    assert 0 <= v < shape[d]
    assert not buffer.rect[d].begin <= v < buffer.rect[d].end


def assert_same(new, ref):
    (a, ea), (b, eb) = new, ref
    assert (type(ea), str(ea)) == (type(eb), str(eb))
    if a is not None:
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def compare(container, buf, work_shape, work_rect, rng, seen):
    shape = container.datum.shape
    boundary = container.boundary
    radius = container.radius
    center = views._scaled(work_rect, views._scales(work_shape, shape))
    padded = center.expand(list(radius))

    # Lenient: the view's gather and the oracle agree exactly.
    assert_same(
        outcome(lambda: views._Gather(
            padded, buf.rect, shape, boundary, lenient=True
        ).take(buf.view(buf.rect))),
        outcome(lambda: oracle.gather(buf, shape, boundary, padded, True)),
    )

    # Strict: the view's construction.
    new = outcome(lambda: WindowView(container, buf, work_shape, work_rect))
    ref = outcome(lambda: oracle.gather(buf, shape, boundary, padded, False))
    if new[1] is not None and ref[1] is None:
        assert_zero_rule(new[1], boundary, buf, shape)
        seen["zero-rule"] += 1
        return
    assert_same((None, new[1]), (None, ref[1]))
    if new[1] is not None:
        seen["error"] += 1
        return
    seen[boundary] += 1
    view, ref_padded = new[0], ref[0]
    assert_same((view._padded, None), (ref_padded, None))
    assert not np.shares_memory(view._padded, buf.data)
    seen["slices" if view._geo.gather.slices else "index"] += 1

    for offs in itertools.product(*[range(-r, r + 1) for r in radius]):
        assert_same(
            (view.offset(*offs), None),
            (oracle.offset(ref_padded, radius, center.shape, offs), None),
        )
    assert_same((view.center(), None), (oracle.offset(
        ref_padded, radius, center.shape, [0] * len(radius)), None))
    for include in (False, True):
        expect = oracle.neighborhood_sum(
            ref_padded, radius, center.shape, include
        )
        assert_same((view.neighborhood_sum(include), None), (expect, None))
        # With a recorder, every term goes through offset() and is seen.
        rec = AccessRecorder(0, work_rect)
        view._attach(rec, 0)
        assert_same((view.neighborhood_sum(include), None), (expect, None))
        terms = {
            center.shift(list(offs))
            for offs in itertools.product(*[range(-r, r + 1) for r in radius])
            if include or any(offs) or not any(radius)
        }
        assert rec.reads.get(0, set()) == {t for t in terms if not t.empty}
        view._attach(None, 0)

    # Arbitrary rects past the window, lenient and strict.
    for _ in range(3):
        want = Rect(*[
            (iv.begin - int(rng.integers(0, 4)),
             iv.end + int(rng.integers(0, 4)))
            for iv in padded.intervals
        ])
        assert_same(
            outcome(lambda: view._gather(want, lenient=True)),
            outcome(lambda: oracle.gather(buf, shape, boundary, want, True)),
        )
        new = outcome(lambda: view._gather(want, lenient=False))
        ref = outcome(lambda: oracle.gather(buf, shape, boundary, want, False))
        if new[1] is not None and ref[1] is None:
            assert_zero_rule(new[1], boundary, buf, shape)
        else:
            assert_same(new, ref)


def test_views_match_oracle():
    rng = np.random.default_rng(20261018)
    seen = dict.fromkeys(
        [*Boundary, "error", "zero-rule", "slices", "index"], 0
    )
    for _ in range(600):
        compare(*random_case(rng), rng, seen)
    # The cases exercise what they claim to.
    assert all(n > 0 for n in seen.values()), seen


@pytest.mark.parametrize("seed", range(6))
def test_wide_dimension_matches_oracle(seed):
    """One 8192-wide dimension, as at the paper's board size."""
    rng = np.random.default_rng(seed)
    seen = dict.fromkeys(
        [*Boundary, "error", "zero-rule", "slices", "index"], 0
    )
    for _ in range(4):
        compare(*random_case(rng, wide=True), rng, seen)


def test_freed_and_timing_only_buffers_still_raise():
    rng = np.random.default_rng(1)
    container, buf, work_shape, work_rect = random_case(rng)
    buf.rect = Rect(*[(-3, n + 3) for n in container.datum.shape])
    buf.data = random_values(rng, buf.rect.shape, np.int32)
    WindowView(container, buf, work_shape, work_rect)
    buf.freed = True
    with pytest.raises(DeviceError, match="use after free"):
        WindowView(container, buf, work_shape, work_rect)
    buf.freed, buf.data = False, None
    with pytest.raises(DeviceError, match="timing-only"):
        WindowView(container, buf, work_shape, work_rect)
