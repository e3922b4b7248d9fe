"""Differential tests for the actual -> virtual buffer location rule.

``locate_virtual_all`` decides containment one dimension at a time. The
oracle below is the direct scan it replaced: shift the region by every
one of the ``3**ndim`` wrap offsets and keep the shifts the buffer
contains, identity first. Both must return the same candidates in the
same order and raise the same errors.
"""

import itertools

import numpy as np
import pytest

from repro.core.buffers import locate_virtual, locate_virtual_all
from repro.errors import DeviceError
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


def scan_oracle(buffer, actual, datum_shape):
    candidates = []
    offsets_per_dim = [(-s, 0, s) for s in datum_shape]
    for offs in itertools.product(*offsets_per_dim):
        cand = actual.shift(offs)
        if buffer.rect.contains(cand):
            candidates.append(cand)
    if not candidates:
        raise DeviceError(
            f"actual region {actual} maps to no virtual position in "
            f"buffer extent {buffer.rect} (datum shape "
            f"{tuple(datum_shape)})"
        )
    candidates.sort(key=lambda r: r != actual)
    return candidates


def outcome(fn, buffer, actual, shape):
    """``("ok", candidates)`` or ``(error type, message)``."""
    try:
        return ("ok", fn(buffer, actual, shape))
    except (DeviceError, ValueError) as e:
        return (type(e), str(e))


def buf(*extent):
    return DeviceBuffer(0, Rect(*extent), np.dtype(np.float32))


def check(buffer, actual, shape):
    """Assert agreement with the oracle; return the shared outcome."""
    got = outcome(locate_virtual_all, buffer, actual, shape)
    want = outcome(scan_oracle, buffer, actual, shape)
    assert got == want, (buffer.rect, actual, shape)
    if got[0] == "ok":
        assert locate_virtual(buffer, actual, shape) == got[1][0]
    return got


def random_interval(rng, lo, hi, allow_empty):
    b = int(rng.integers(lo, hi + 1))
    e = int(rng.integers(b, hi + 1))
    if e == b and not allow_empty:
        e = b + 1 if b < hi else b
        b = e - 1
    return b, e


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_random_buffers_match_scan(ndim):
    """Random halo buffers and regions, including regions that fall
    outside the buffer, empty regions and aliased ones."""
    rng = np.random.default_rng(100 + ndim)
    seen = {"one": 0, "alias": 0, "empty": 0, "error": 0}
    for _ in range(600):
        shape = [int(rng.integers(1, 9)) for _ in range(ndim)]
        halo = [int(rng.integers(0, s)) for s in shape]
        extent = [
            random_interval(rng, -h, s + h, allow_empty=False)
            for s, h in zip(shape, halo)
        ]
        actual = Rect(*[
            random_interval(rng, 0, s, allow_empty=rng.random() < 0.1)
            for s in shape
        ])
        kind, result = check(buf(*extent), actual, shape)
        if actual.empty:
            seen["empty"] += 1
        elif kind is not DeviceError:
            seen["alias" if len(result) > 1 else "one"] += 1
        else:
            seen["error"] += 1
    assert all(seen.values()), seen


def test_multi_device_halo_buffers():
    """Row stripes of a 2-D WRAP datum over 2-4 devices, each buffer
    with a radius-r halo: every in-datum region a stripe can hold has
    exactly one position; the halo rows wrap to the far edge."""
    shape = (16, 12)
    hits = 0
    for g, r in itertools.product((2, 3, 4), (1, 2)):
        bounds = np.linspace(0, shape[0], g + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = buf((lo - r, hi + r), (-r, shape[1] + r))
            for r0 in range(shape[0]):
                for r1 in range(r0, min(r0 + 4, shape[0]) + 1):
                    actual = Rect((r0, r1), (0, shape[1]))
                    kind, result = check(b, actual, shape)
                    if kind == "ok" and not actual.empty:
                        assert len(result) == 1
                        hits += 1
    assert hits
    # The last row sits in the first stripe's low halo.
    b = buf((-1, 5), (-1, 13))
    kind, result = check(b, Rect((15, 16), (0, 12)), shape)
    assert result == [Rect((-1, 0), (0, 12))]


def test_single_survivor_wrap_aliases():
    """A lone device's WRAP buffer spans the datum plus halos, so edge
    regions alias: identity first, then halo images in product order."""
    shape = (6, 5, 4)
    b = buf((-1, 7), (-2, 7), (-1, 5))
    actual = Rect((0, 1), (0, 2), (3, 4))
    kind, result = check(b, actual, shape)
    assert result[0] == actual
    assert len(result) == 2 * 2 * 2
    assert result[1] == Rect((0, 1), (0, 2), (-1, 0))
    aliased = 0
    for corner in itertools.product(*[range(s) for s in shape]):
        kind, result = check(b, Rect(*[(c, c + 1) for c in corner]), shape)
        aliased += len(result) > 1
    assert aliased


def test_empty_region_fits_every_shift():
    b = buf((2, 4), (0, 3))
    actual = Rect((1, 1), (0, 2))
    kind, result = check(b, actual, (8, 3))
    assert len(result) == 9 and result[0] == actual
    # Even an empty region against an empty buffer.
    check(buf((3, 3), (0, 3)), actual, (8, 3))


def test_region_outside_extent_raises():
    b = buf((0, 4), (0, 8))
    for actual in (Rect((4, 6), (0, 8)), Rect((0, 4), (2, 9))):
        kind, msg = check(b, actual, (10, 8))
        assert kind is DeviceError and "maps to no virtual position" in msg


def test_dimensionality_mismatch_errors_match():
    b = buf((0, 4), (0, 4))
    check(b, Rect((0, 2), (0, 2)), (4,))
    check(b, Rect((0, 2)), (4,))
    check(b, Rect((0, 2), (0, 2)), ())
