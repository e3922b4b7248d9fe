"""Reference bodies of the window view's gather and neighborhood sum.

These are ``WindowView._gather`` and ``WindowView.neighborhood_sum`` as
they were before the view's geometry was memoized: one Python loop over
every position of every dimension (a ``sorted`` candidate list per
position under WRAP), one ``np.take`` per dimension, and one fresh array
per offset. ``test_views_oracle.py`` compares the view with them.

One rule differs on purpose. Here a ZERO/NO_CHECKS position inside the
datum that the buffer does not hold reads as a silent zero; the view
raises ``DeviceError`` for it in strict mode, as WRAP and CLAMP always
did, and reads zero only in lenient (sanitize) mode.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import DeviceError
from repro.patterns.boundary import Boundary
from repro.utils.rect import Rect


def gather(buffer, shape, boundary: Boundary, want: Rect,
           lenient: bool) -> np.ndarray:
    """The virtual-coordinate rect ``want`` of ``buffer``'s datum."""
    arr = buffer.view(buffer.rect)
    index_lists: list[np.ndarray] = []
    zero_masks: list[np.ndarray] = []
    for d in range(want.ndim):
        lo, hi = buffer.rect[d].begin, buffer.rect[d].end
        n = shape[d]
        idxs = np.empty(want[d].size, dtype=np.int64)
        mask = np.zeros(want[d].size, dtype=bool)
        for i, v in enumerate(range(want[d].begin, want[d].end)):
            pos: int | None = None
            if boundary is Boundary.WRAP:
                cands = sorted(
                    (v, v - n, v + n), key=lambda c: not 0 <= c < n
                )
                for cand in cands:
                    if lo <= cand < hi:
                        pos = cand - lo
                        break
            elif boundary is Boundary.CLAMP:
                c = min(max(v, 0), n - 1)
                if lo <= c < hi:
                    pos = c - lo
            else:  # ZERO / NO_CHECKS
                if 0 <= v < n and lo <= v < hi:
                    pos = v - lo
                else:
                    pos = 0
                    mask[i] = True
            if pos is None:
                if lenient:
                    pos = 0
                    mask[i] = True
                else:
                    raise DeviceError(
                        f"window position {v} (dim {d}) has no backing "
                        f"data in buffer extent {buffer.rect} "
                        f"(boundary {boundary.value})"
                    )
            idxs[i] = pos
        index_lists.append(idxs)
        zero_masks.append(mask)
    out = arr
    for d, idxs in enumerate(index_lists):
        out = np.take(out, idxs, axis=d)
    if any(m.any() for m in zero_masks):
        out = out.copy()
        for d, m in enumerate(zero_masks):
            if m.any():
                sl = [slice(None)] * want.ndim
                sl[d] = m
                out[tuple(sl)] = 0
    return out


def offset(padded: np.ndarray, radius, center_shape, offsets) -> np.ndarray:
    """The center-shaped region of ``padded`` shifted by ``offsets``."""
    slices = []
    for d, off in enumerate(offsets):
        start = radius[d] + off
        slices.append(slice(start, start + center_shape[d]))
    return padded[tuple(slices)]


def neighborhood_sum(padded: np.ndarray, radius, center_shape,
                     include_center: bool = False) -> np.ndarray:
    """Sum over the window, one fresh array per term, in
    ``itertools.product`` offset order."""
    acc = None
    for offs in itertools.product(*[range(-r, r + 1) for r in radius]):
        if not include_center and all(o == 0 for o in offs):
            continue
        v = offset(padded, radius, center_shape, offs)
        acc = v.copy() if acc is None else acc + v
    if acc is None:
        acc = offset(padded, radius, center_shape, [0] * len(radius)).copy()
    return acc
