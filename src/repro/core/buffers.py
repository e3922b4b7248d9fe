"""Helpers mapping between actual datum coordinates and per-device buffer
(virtual) coordinates.

Device buffers cover the analyzer's bounding box in *virtual* coordinates,
which may extend beyond the datum for WRAP halos (e.g. rows ``[-1, 2049)``
of an 8192-row matrix). An instance of actual rows ``[8191, 8192)`` then
lives at virtual rows ``[-1, 0)``. :func:`locate_virtual` finds the unique
virtual position of an actual region within a buffer.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.errors import DeviceError
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect


def locate_virtual_all(
    buffer: DeviceBuffer, actual: Rect, datum_shape: Sequence[int]
) -> list[Rect]:
    """All virtual rects inside ``buffer`` holding actual region
    ``actual``, identity position first.

    With two or more devices each buffer covers less than a full wrapped
    dimension, so exactly one candidate exists. A *single-device* wrap
    buffer (reachable when fault recovery degrades the node to one
    survivor) spans the datum plus halos, so a region near a wrapped edge
    aliases: it lives at its identity position *and* as a halo image.
    Writers must update every alias; readers use the identity position,
    which kernel writes keep current.

    A candidate is ``actual`` shifted by one of ``(-s, 0, +s)`` per
    dimension, and containment in the buffer is decided one dimension at
    a time, so the admissible offsets are found per dimension (``3*ndim``
    interval checks) and only their product is built. An empty region
    fits at every shift.
    """
    ivals = actual.intervals
    bounds = buffer.rect.intervals
    if len(datum_shape) != len(ivals):
        raise ValueError("offset dimensionality mismatch")
    if len(bounds) != len(ivals):
        raise ValueError(
            f"dimensionality mismatch: {len(bounds)} vs {len(ivals)}"
        )
    empty = actual.empty
    fits_per_dim = []
    for iv, b, s in zip(ivals, bounds, datum_shape):
        fits = [
            o for o in (-s, 0, s)
            if empty or (b.begin <= iv.begin + o and iv.end + o <= b.end)
        ]
        if not fits:
            raise DeviceError(
                f"actual region {actual} maps to no virtual position in "
                f"buffer extent {buffer.rect} (datum shape "
                f"{tuple(datum_shape)})"
            )
        fits_per_dim.append(fits)
    if all(fits == [0] for fits in fits_per_dim):
        return [actual]
    candidates = [
        actual.shift(offs) for offs in itertools.product(*fits_per_dim)
    ]
    candidates.sort(key=lambda r: r != actual)
    return candidates


def locate_virtual(
    buffer: DeviceBuffer, actual: Rect, datum_shape: Sequence[int]
) -> Rect:
    """The canonical virtual rect inside ``buffer`` holding actual region
    ``actual`` (the identity position when the region aliases)."""
    return locate_virtual_all(buffer, actual, datum_shape)[0]
