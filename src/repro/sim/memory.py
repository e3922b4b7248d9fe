"""Device global-memory accounting and buffers.

The Memory Analyzer's whole point (§4.2) is to allocate each datum's
per-device segment *once*, *contiguously*, and *exactly as large as
needed*. The allocator therefore tracks capacity, live bytes and the
number of allocation calls, so tests can assert the analyzer's
one-allocation-per-datum-per-device property and the bounding-box sizes.

Buffers live in *virtual datum coordinates*: a buffer's ``origin`` is the
N-d index of its element ``[0, ..., 0]`` and may be negative when the
allocation includes wrap-around halo space (see
:func:`repro.utils.rect.split_modular`).

For graceful degradation under memory pressure (DESIGN.md §10) the
allocator also exposes :attr:`free_bytes`, stamps each buffer with a
``last_use`` counter (LRU order for the scheduler's replica eviction), and
validates every :meth:`free` against its live-buffer registry so double
frees and cross-device frees raise :class:`~repro.errors.DeviceError`
instead of silently corrupting the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import AllocationError, DeviceError
from repro.utils.rect import Rect


#: Regions a buffer remembers the slices of (``DeviceBuffer.view``); a
#: buffer viewed through more starts over.
_VIEW_MEMO_LIMIT = 64


@dataclass(eq=False)
class DeviceBuffer:
    """A contiguous allocation on one device.

    Attributes:
        device: Owning device index.
        rect: Covered region in virtual datum coordinates (the analyzer's
            bounding box).
        dtype: Element dtype.
        data: Backing numpy array in functional mode, else ``None``.
        last_use: Allocator clock value at the most recent :meth:`touch`
            (eviction candidates are freed in ascending ``last_use`` order).
    """

    device: int
    rect: Rect
    dtype: np.dtype
    data: Optional[np.ndarray] = None
    freed: bool = False
    last_use: int = 0
    #: region -> its slicing tuple into ``data``, for regions already
    #: checked against ``rect`` (:meth:`view`); cleared past
    #: :data:`_VIEW_MEMO_LIMIT` entries.
    _slices: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def nbytes(self) -> int:
        return self.rect.size * self.dtype.itemsize

    @property
    def origin(self) -> tuple[int, ...]:
        return self.rect.begin

    def view(self, region: Rect) -> np.ndarray:
        """Numpy view of ``region`` (virtual coords); functional mode only."""
        if self.data is None:
            raise DeviceError("buffer has no functional data (timing-only mode)")
        if self.freed:
            raise DeviceError("use after free")
        memo = self._slices
        idx = memo.get(region)
        if idx is None:
            if not self.rect.contains(region):
                raise DeviceError(
                    f"region {region} outside buffer extent {self.rect}"
                )
            if len(memo) >= _VIEW_MEMO_LIMIT:
                memo.clear()
            idx = memo[region] = region.slices(self.origin)
        return self.data[idx]


class DeviceMemory:
    """Global-memory accounting for one device.

    A :class:`~repro.sim.node.SimNode` wires ``fault_check`` to its
    :meth:`FaultPlan.check_alloc <repro.sim.faults.FaultPlan.check_alloc>`
    so the Nth allocation call can raise an *injected* AllocationError
    (DESIGN.md §8).

    ``alloc_calls`` counts allocation *attempts* — including zero-size
    allocations and attempts that fail with a genuine out-of-memory error —
    so FaultPlan nth-allocation targeting cannot drift depending on whether
    a datum happens to have empty segments or a prior attempt overflowed.
    """

    def __init__(self, capacity: int, functional: bool):
        self.capacity = int(capacity)
        self.functional = functional
        self.used = 0
        self.peak = 0
        self.alloc_calls = 0
        #: Monotonic use clock; stamps ``DeviceBuffer.last_use`` (LRU).
        self.clock = 0
        #: Bumped by every allocation attempt and every free: a scheduler's
        #: pre-bound buffer lists (DESIGN.md §7) are valid while it holds.
        self.epoch = 0
        #: Live (non-empty) allocations by identity: the authority on what
        #: this allocator owns, consulted by :meth:`free` to reject double
        #: frees and buffers belonging to another device's memory.
        self._live: dict[int, DeviceBuffer] = {}
        #: Optional injected-fault hook: callable(device, nth_alloc) that
        #: raises AllocationError(injected=True) when the plan says so.
        self.fault_check = None

    @property
    def free_bytes(self) -> int:
        """Capacity not currently allocated."""
        return self.capacity - self.used

    def touch(self, buf: DeviceBuffer) -> None:
        """Stamp a buffer as most recently used (LRU eviction order)."""
        self.clock += 1
        buf.last_use = self.clock

    def allocate(
        self, device: int, rect: Rect, dtype: np.dtype | type
    ) -> DeviceBuffer:
        """Allocate a contiguous buffer covering ``rect``."""
        dtype = np.dtype(dtype)
        self.epoch += 1
        # Every attempt counts — zero-size, injected-fault and genuine-OOM
        # outcomes included — so the Nth-allocation fault hook sees a
        # stable numbering (see class docstring).
        self.alloc_calls += 1
        if self.fault_check is not None:
            self.fault_check(device, self.alloc_calls)
        if rect.empty:
            # Zero-size allocations are legal (a device with no share of a
            # datum); they consume no memory.
            return DeviceBuffer(device, rect, dtype, None)
        nbytes = rect.size * dtype.itemsize
        if self.used + nbytes > self.capacity:
            raise AllocationError(
                f"device {device} out of memory: requested {nbytes} B, "
                f"{self.capacity - self.used} B free of {self.capacity} B",
                device=device,
            )
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        data = np.zeros(rect.shape, dtype=dtype) if self.functional else None
        buf = DeviceBuffer(device, rect, dtype, data)
        self.touch(buf)
        self._live[id(buf)] = buf
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer allocated by *this* allocator.

        A repeated ``free`` of an honestly-freed buffer is a tolerated
        no-op (recovery paths force-free defensively). Freeing a buffer
        that was never allocated here — one owned by another device's
        memory, or one whose ``freed`` flag was manipulated to sneak a
        second accounting subtraction — raises
        :class:`~repro.errors.DeviceError` instead of underflowing
        ``used``.
        """
        self.epoch += 1
        if buf.rect.empty:
            buf.freed = True
            return
        live = self._live.pop(id(buf), None)
        if live is None:
            if buf.freed:
                return  # benign repeated free
            raise DeviceError(
                f"free of buffer {buf.rect} (device {buf.device}): not a "
                "live allocation of this device's memory (double free or "
                "foreign buffer)"
            )
        if buf.nbytes > self.used:  # pragma: no cover - registry prevents it
            raise DeviceError(
                f"memory accounting underflow freeing {buf.nbytes} B "
                f"with only {self.used} B in use"
            )
        self.used -= buf.nbytes
        buf.freed = True
        buf.data = None
