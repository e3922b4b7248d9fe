"""Access recording for one simulated "threadblock" (ROI segment).

An :class:`AccessRecorder` is threaded through
:func:`repro.device_api.views.make_view`; the views report every element
region they resolve — reads as virtual-coordinate :class:`Rect`s, writes as
rects or flat scatter indices — and flag accesses they can classify as
violations at resolution time (over-radius window offsets, out-of-range
scatter/bin indices, dynamic-output overflow). The recorder itself stays
dumb: it collects; :mod:`repro.sanitize.checker` judges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.utils.rect import Rect


@dataclass(frozen=True)
class AccessFlag:
    """A violation the view could classify while resolving the access.

    Attributes:
        kind: ``"over-radius-read"``, ``"oob-write-index"`` or
            ``"append-overflow"``.
        container_index: Offending container.
        rect: Observed region / index span (virtual coordinates).
        declared: The bound that was exceeded (rect or capacity).
        detail: Extra human-readable context for the report.
    """

    kind: str
    container_index: int
    rect: Optional[Rect] = None
    declared: Any = None
    detail: str = ""


class AccessRecorder:
    """Collects the actual accesses of one segment's kernel execution.

    Attributes:
        segment: ROI segment ordinal (the scheduler numbers a task's
            kernels in the order they run).
        device: Device the segment ran on (``None`` when recorded
            outside a scheduler).
        work_rect: The segment's share of the work space.
    """

    def __init__(
        self,
        segment: int,
        work_rect: Rect,
        device: int | None = None,
    ):
        self.segment = segment
        self.device = device
        self.work_rect = work_rect
        #: container index -> set of read rects (virtual datum coords).
        self.reads: dict[int, set[Rect]] = {}
        #: container index -> set of written rects (datum coords).
        self.writes: dict[int, set[Rect]] = {}
        #: container index -> list of scattered flat-index arrays.
        self.scatters: dict[int, list[np.ndarray]] = {}
        #: container index -> elements appended to a dynamic output.
        self.appends: dict[int, int] = {}
        #: violations classified by the views at access time.
        self.flags: list[AccessFlag] = []

    # -- recording entry points (called by the device-level views) ---------
    def record_read(self, index: int, rect: Rect) -> None:
        if not rect.empty:
            self.reads.setdefault(index, set()).add(rect)

    def record_write(self, index: int, rect: Rect) -> None:
        if not rect.empty:
            self.writes.setdefault(index, set()).add(rect)

    def record_scatter(self, index: int, flat_indices: np.ndarray) -> None:
        if flat_indices.size:
            self.scatters.setdefault(index, []).append(
                np.asarray(flat_indices).reshape(-1).copy()
            )

    def record_append(self, index: int, count: int) -> None:
        self.appends[index] = self.appends.get(index, 0) + int(count)

    def flag(self, flag: AccessFlag) -> None:
        self.flags.append(flag)

    # -- summaries ---------------------------------------------------------
    def touched_inputs(self) -> set[int]:
        """Container indices with at least one recorded read."""
        return set(self.reads)

    def scattered(self, index: int) -> np.ndarray:
        """All flat indices scattered to one container (may be empty)."""
        chunks = self.scatters.get(index)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([c.astype(np.int64, copy=False) for c in chunks])
