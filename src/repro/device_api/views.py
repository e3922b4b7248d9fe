"""Device-level container views: index-free data access for kernels.

These are the Python analogue of the paper's device-level containers
(Fig. 1b): kernels never compute global indices; they read inputs through
pattern-shaped accessors (window neighborhoods, block stripes) and write
outputs through injective arrays or reductive aggregators.

Views operate on whole device segments with numpy (the vectorized
"bulk-synchronous thread-block" execution mode); the scalar reference
iterators of :mod:`repro.device_api.foreach` provide the literal
one-thread-at-a-time semantics for validation.

Sanitize mode (DESIGN.md §9): every view optionally carries an
:class:`~repro.sanitize.recorder.AccessRecorder`. With a recorder present,
views report the element regions they actually resolve — and accesses the
framework would normally reject outright (a window offset beyond the
declared radius) resolve leniently instead of raising, so the sanitizer
can observe, classify and report the violation with full context.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

import numpy as np

from repro.errors import DeviceError, PatternMismatchError
from repro.patterns.base import InputContainer
from repro.patterns.boundary import Boundary
from repro.patterns.input_patterns import (
    Block2D,
    Block2DTransposed,
    BlockColumnStriped,
    BlockStriped,
    FullReplicationInput,
    WindowND,
)
from repro.patterns.output_patterns import (
    InjectiveColumnStriped,
    InjectiveStriped,
    ReductiveDynamic,
    ReductiveStatic,
    StructuredInjective,
    UnstructuredInjective,
    IrregularOutput,
)
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect

def _scales(work_shape: Sequence[int], datum_shape: Sequence[int]) -> tuple[int, ...]:
    return tuple(d // w for w, d in zip(work_shape, datum_shape))


def _scaled(work_rect: Rect, scales: Sequence[int]) -> Rect:
    return Rect(
        *[
            (iv.begin * s, iv.end * s)
            for iv, s in zip(work_rect.intervals, scales)
        ]
    )


#: Bound on the window-geometry table, as for ``core/graph.py``'s compiled
#: launch bodies: past it the least recently used geometry is dropped.
_GEOMETRIES = 256


def _index_map(
    d: int, want, buffer_rect: Rect, n: int, boundary: Boundary,
    lenient: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Buffer-local positions of the virtual positions ``want`` along dim
    ``d``, and the mask of those that read as zero (the rules are
    :meth:`WindowView._gather`'s)."""
    lo, hi = buffer_rect[d].begin, buffer_rect[d].end
    v = np.arange(want.begin, want.end, dtype=np.int64)
    pos = np.full(v.size, -1, dtype=np.int64)
    zero = np.zeros(v.size, dtype=bool)
    if boundary is Boundary.WRAP:
        # Prefer the in-datum (identity) image: kernel writes and copies
        # keep it current, while a halo image the buffer happens to retain
        # (e.g. after fault recovery grew it to a full period) may be
        # stale — the analyzer plans no halo copies when a device holds
        # the whole dimension. Otherwise the first held of v, v-n, v+n.
        images = (v, v - n, v + n)
        for c in images:
            hit = (pos < 0) & (c >= 0) & (c < n) & (c >= lo) & (c < hi)
            pos[hit] = c[hit] - lo
        for c in images:
            hit = (pos < 0) & (c >= lo) & (c < hi)
            pos[hit] = c[hit] - lo
    elif boundary is Boundary.CLAMP:
        c = np.clip(v, 0, n - 1)
        hit = (c >= lo) & (c < hi)
        pos[hit] = c[hit] - lo
    else:  # ZERO / NO_CHECKS: only positions outside the datum are zeros
        zero = (v < 0) | (v >= n)
        hit = ~zero & (v >= lo) & (v < hi)
        pos[hit] = v[hit] - lo
        pos[zero] = 0
    missing = pos < 0
    if missing.any():
        if not lenient:
            raise DeviceError(
                f"window position {int(v[missing.argmax()])} (dim {d}) has "
                f"no backing data in buffer extent {buffer_rect} "
                f"(boundary {boundary.value})"
            )
        pos[missing] = 0
        zero |= missing
    return pos, zero


def _run(pos: np.ndarray, zero: np.ndarray) -> slice | None:
    """``pos`` as a slice, when it is one ascending run with no zeros."""
    if zero.any() or not (np.diff(pos) == 1).all():
        return None
    start = int(pos[0]) if pos.size else 0
    return slice(start, start + pos.size)


class _Gather:
    """How to copy one virtual-coordinate rect out of a buffer's array:
    one slice per dimension, or one ``np.ix_`` index and the zero masks."""

    __slots__ = ("slices", "index", "zeros")

    def __init__(
        self, want: Rect, buffer_rect: Rect, shape: tuple[int, ...],
        boundary: Boundary, lenient: bool,
    ):
        maps = [
            _index_map(d, want[d], buffer_rect, shape[d], boundary, lenient)
            for d in range(want.ndim)
        ]
        runs = [_run(pos, zero) for pos, zero in maps]
        if all(r is not None for r in runs):
            self.slices = tuple(runs)
            self.index = None
            self.zeros = ()
            return
        self.slices = None
        self.index = np.ix_(*[pos for pos, _ in maps])
        self.zeros = tuple(
            tuple(zero if e == d else slice(None) for e in range(want.ndim))
            for d, (_, zero) in enumerate(maps) if zero.any()
        )

    def take(self, arr: np.ndarray) -> np.ndarray:
        """A fresh array (never a view of ``arr``) of the gathered rect."""
        if self.slices is not None:
            return arr[self.slices].copy()
        out = arr[self.index]
        for z in self.zeros:
            out[z] = 0
        return out


class _Geometry:
    """A window view's geometry, a pure function of its table key: the
    center and padded rects, the padded rect's gather, and the
    padded-array slices of every in-radius offset (in
    ``itertools.product`` order, the order of :meth:`WindowView.
    neighborhood_sum`)."""

    __slots__ = (
        "center_rect", "padded_rect", "gather", "offsets", "center",
        "window", "neighbors",
    )

    def __init__(
        self, radius: tuple[int, ...], boundary: Boundary,
        work_shape: tuple[int, ...], shape: tuple[int, ...],
        work_rect: Rect, buffer_rect: Rect,
    ):
        center = _scaled(work_rect, _scales(work_shape, shape))
        self.center_rect = center
        self.padded_rect = center.expand(list(radius))
        self.gather = _Gather(
            self.padded_rect, buffer_rect, shape, boundary, lenient=False
        )
        self.offsets = {
            offs: tuple(
                slice(r + o, r + o + s)
                for r, o, s in zip(radius, offs, center.shape)
            )
            for offs in itertools.product(*[range(-r, r + 1) for r in radius])
        }
        self.center = self.offsets[(0,) * len(radius)]
        self.window = tuple(self.offsets.values())
        self.neighbors = tuple(
            sl for offs, sl in self.offsets.items() if any(offs)
        )


#: The geometry table: one entry per (radius, boundary, work shape, datum
#: shape, work rect, buffer rect), shared by every scheduler and lease. A
#: geometry with no backing data raises, and is not cached.
_geometry = functools.lru_cache(maxsize=_GEOMETRIES)(_Geometry)


class _Recording:
    """Mixin wiring a view to an optional access recorder."""

    _recorder = None
    _rec_index: int = 0

    def _attach(self, recorder, index: int) -> None:
        self._recorder = recorder
        self._rec_index = index

    def _note_read(self, rect: Rect) -> None:
        if self._recorder is not None:
            self._recorder.record_read(self._rec_index, rect)

    def _note_write(self, rect: Rect) -> None:
        if self._recorder is not None:
            self._recorder.record_write(self._rec_index, rect)


class WindowView(_Recording):
    """Neighborhood access for Window (ND) inputs.

    ``center()`` is the device's own region; ``offset(o1, ..., oN)`` is
    the same-shaped region shifted by the given per-dimension offsets
    (|o_d| <= radius_d) — the vectorized equivalent of the paper's
    relative-coordinate iterator access.

    The view's geometry (its center and padded rects, how each padded
    position maps into the buffer, and the padded-array slice of every
    in-radius offset) comes from the shared geometry table, so a steady
    view costs one table lookup and one gather.
    """

    def __init__(
        self,
        container: WindowND,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.radius = container.radius
        self._attach(recorder, index)
        self._buffer = buffer
        self._shape = tuple(container.datum.shape)
        arr = buffer.view(buffer.rect)
        geo = _geometry(
            self.radius, container.boundary, tuple(work_shape), self._shape,
            work_rect, buffer.rect,
        )
        self._geo = geo
        self.center_rect = geo.center_rect
        self._padded = geo.gather.take(arr)

    def _gather(self, want: Rect, lenient: bool) -> np.ndarray:
        """Materialize an arbitrary virtual-coordinate rect from the buffer.

        Each position maps to a buffer position: directly where the
        framework placed halo data; modularly when the buffer holds the
        full period of a wrapped dimension (the in-datum image first, then
        ``v``, ``v - n``, ``v + n``); clamped to the nearest edge under
        CLAMP. Under ZERO/NO_CHECKS a position outside the datum is a
        synthesized zero. Any other position — including an in-datum one
        the buffer does not hold, under every boundary — has no backing
        data and raises DeviceError, except in ``lenient`` (sanitize)
        mode, where it resolves to zero so the access can be recorded and
        reported instead of aborting the kernel.

        The per-dimension maps are built with numpy (:func:`_index_map`);
        a dimension that maps to one contiguous buffer run becomes a
        slice. The result is always a fresh array: one slice copy when
        every dimension is a slice, else one ``np.ix_`` gather followed by
        masked zeroing. A view's own padded rect goes through the same
        code once per geometry (``_geometry``); this method serves
        the uncached lenient reads of sanitize mode.
        """
        buffer = self._buffer
        arr = buffer.view(buffer.rect)
        return _Gather(
            want, buffer.rect, self._shape, self.container.boundary, lenient
        ).take(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.center_rect.shape

    def center(self) -> np.ndarray:
        if self._recorder is None:
            return self._padded[self._geo.center]
        return self.offset(*([0] * self.center_rect.ndim))

    def offset(self, *offsets: int) -> np.ndarray:
        """The center-shaped region shifted by per-dimension offsets."""
        if self._recorder is None:
            sl = self._geo.offsets.get(offsets)
            if sl is not None:
                return self._padded[sl]
        if len(offsets) != self.center_rect.ndim:
            raise DeviceError(
                f"offset needs {self.center_rect.ndim} components"
            )
        over = any(
            abs(off) > r for off, r in zip(offsets, self.radius)
        )
        want = self.center_rect.shift(list(offsets))
        self._note_read(want)
        if over:
            if self._recorder is None:
                d, off = next(
                    (d, o) for d, (o, r)
                    in enumerate(zip(offsets, self.radius)) if abs(o) > r
                )
                raise DeviceError(
                    f"offset {off} exceeds window radius {self.radius[d]} "
                    f"in dim {d}"
                )
            # Sanitize mode: record the over-radius access (the checker
            # turns the flag into an OutOfPatternReadError) and resolve it
            # leniently so execution continues.
            from repro.sanitize.recorder import AccessFlag

            self._recorder.flag(AccessFlag(
                kind="over-radius-read",
                container_index=self._rec_index,
                rect=want,
                declared=self._geo.padded_rect,
                detail=(
                    f"offsets {tuple(offsets)} exceed declared window "
                    f"radius {self.radius}"
                ),
            ))
            return self._gather(want, lenient=True)
        return self._padded[self._geo.offsets[offsets]]

    def neighborhood_sum(self, include_center: bool = False) -> np.ndarray:
        """Sum over the full window (minus the center unless requested) —
        a convenience for stencil kernels like the Game of Life.

        Terms are added in ``itertools.product`` offset order, the first
        copied and the rest added in place, so float sums do not depend
        on whether a recorder is attached (which routes every term
        through :meth:`offset`, so the sanitizer sees each read).
        """
        geo = self._geo
        if self._recorder is None:
            padded = self._padded
            terms = [
                padded[sl]
                for sl in (geo.window if include_center else geo.neighbors)
            ]
        else:
            terms = [
                self.offset(*offs)
                for offs in geo.offsets if include_center or any(offs)
            ]
        if not terms:
            return self.center().copy()
        acc = terms[0].copy()
        for v in terms[1:]:
            acc += v
        return acc


class BlockView(_Recording):
    """Row-stripe access for Block (2D) inputs (e.g. GEMM's first operand)."""

    def __init__(
        self,
        container: Block2D,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.required(work_shape, work_rect).virtual
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def stripe(self) -> np.ndarray:
        """This device's rows of the matrix."""
        self._note_read(self.rect)
        return self._arr


class FullView(_Recording):
    """Whole-datum access for fully-replicated inputs (Block 1D/2D-T,
    Adjacency, Traversal, Permutation, Irregular)."""

    def __init__(
        self,
        container: InputContainer,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.required(work_shape, work_rect).virtual
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def array(self) -> np.ndarray:
        self._note_read(self.rect)
        return self._arr


class StructuredInjectiveView(_Recording):
    """Write access to the device's exact output segment.

    ``array`` is the segment; assigning into it is the vectorized
    equivalent of ``*iter = value``. ``commit()`` marks the coalesced
    write-back performed by the device-level aggregator (§4.5.2); the cost
    model accounts for it, and kernels are expected to call it.
    """

    def __init__(
        self,
        container: StructuredInjective,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = container.owned(work_shape, work_rect)
        self._arr = buffer.view(self.rect)
        self.committed = False
        self._attach(recorder, index)

    @property
    def array(self) -> np.ndarray:
        return self._arr

    def write(self, values: np.ndarray) -> None:
        if values.shape != self._arr.shape:
            raise DeviceError(
                f"output shape {values.shape} != segment shape "
                f"{self._arr.shape}"
            )
        self._note_write(self.rect)
        self._arr[...] = values

    def write_element(self, local: tuple[int, ...], value) -> None:
        """Single-element write (the scalar foreach iterator path)."""
        if self._recorder is not None:
            origin = self.rect.begin
            self._note_write(Rect(*[
                (o + p, o + p + 1) for o, p in zip(origin, local)
            ]))
        self._arr[local] = value

    def commit(self) -> None:
        self.committed = True


class ReductiveStaticView(_Recording):
    """Per-device partial accumulator for Reductive (Static) outputs.

    ``partial`` is the device-private duplicate (e.g. a 256-bin histogram);
    ``add_at`` performs the shared-memory-aggregator equivalent of
    ``hist_iter[bin] += w`` over arrays of bins.
    """

    def __init__(
        self,
        container: ReductiveStatic,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self.committed = False
        self._attach(recorder, index)

    @property
    def partial(self) -> np.ndarray:
        self._note_write(self.rect)
        return self._arr

    def _check_bins(
        self, indices: np.ndarray, weights: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Validate bin indices against the datum extent.

        Out-of-range bins would corrupt adjacent memory on a GPU (or crash
        the bincount here); in sanitize mode they are flagged as
        out-of-region writes and dropped so execution continues.
        """
        idx = np.asarray(indices).reshape(-1)
        flat_w = None if weights is None else np.asarray(weights).reshape(-1)
        size = self.rect.size
        bad = (idx < 0) | (idx >= size)
        if not bad.any():
            return idx, flat_w
        if self._recorder is None:
            raise DeviceError(
                f"reduction index {int(idx[bad][0])} outside output extent "
                f"[0, {size})"
            )
        from repro.sanitize.recorder import AccessFlag

        offenders = idx[bad]
        self._recorder.flag(AccessFlag(
            kind="oob-write-index",
            container_index=self._rec_index,
            rect=Rect((int(offenders.min()), int(offenders.max()) + 1)),
            declared=Rect((0, size)),
            detail=f"{offenders.size} reduction indices out of range",
        ))
        keep = ~bad
        return idx[keep], None if flat_w is None else flat_w[keep]

    def add_at(self, indices: np.ndarray, weights: np.ndarray | None = None) -> None:
        if self.container.op != "sum":
            raise DeviceError("add_at requires a sum-reduction container")
        flat = self._arr.reshape(-1)
        idx, w = self._check_bins(indices, weights)
        self._note_write(self.rect)
        if w is None:
            counts = np.bincount(idx, minlength=flat.size)
        else:
            counts = np.bincount(idx, weights=w, minlength=flat.size)
        flat += counts.astype(flat.dtype, copy=False)

    def max_at(self, indices: np.ndarray, values: np.ndarray) -> None:
        if self.container.op != "max":
            raise DeviceError("max_at requires a max-reduction container")
        flat = self._arr.reshape(-1)
        idx, vals = self._check_bins(indices, values)
        self._note_write(self.rect)
        np.maximum.at(flat, idx, vals)

    def commit(self) -> None:
        self.committed = True


class DynamicOutputView(_Recording):
    """Append-only output for Reductive (Dynamic) / Irregular patterns.

    Each device appends a runtime-determined number of elements; the
    host-level aggregator later concatenates per-device prefixes in device
    order (§3.2: "the aggregation process appends the results from each
    GPU to a single output array").
    """

    def __init__(
        self,
        container: ReductiveDynamic | IrregularOutput,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self._buffer = buffer
        buffer.dynamic_count = 0  # type: ignore[attr-defined]
        self._attach(recorder, index)

    @property
    def capacity(self) -> int:
        return self._arr.shape[0]

    @property
    def count(self) -> int:
        return self._buffer.dynamic_count  # type: ignore[attr-defined]

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        n = values.shape[0]
        c = self.count
        if c + n > self.capacity:
            if self._recorder is None:
                raise DeviceError(
                    f"dynamic output overflow: {c}+{n} > capacity "
                    f"{self.capacity}"
                )
            from repro.sanitize.recorder import AccessFlag

            self._recorder.flag(AccessFlag(
                kind="append-overflow",
                container_index=self._rec_index,
                rect=Rect((c, c + n)),
                declared=self.capacity,
                detail=(
                    f"append of {n} elements at count {c} overflows the "
                    f"declared capacity {self.capacity}"
                ),
            ))
            n = self.capacity - c  # keep what fits; the checker reports
            values = values[:n]
            if n <= 0:
                return
        if self._recorder is not None:
            self._recorder.record_append(self._rec_index, n)
        self._arr[c : c + n] = values
        self._buffer.dynamic_count = c + n  # type: ignore[attr-defined]


class UnstructuredInjectiveView(_Recording):
    """Scatter-write access for Unstructured Injective outputs.

    The device-private duplicate is zero-initialized; ``scatter`` writes
    values at arbitrary flat indices. Disjointness across devices is the
    pattern's contract (injectivity); the post-kernel aggregation sums the
    duplicates.
    """

    def __init__(
        self,
        container: UnstructuredInjective,
        buffer: DeviceBuffer,
        work_shape: Sequence[int],
        work_rect: Rect,
        recorder=None,
        index: int = 0,
    ):
        self.container = container
        self.rect = Rect.from_shape(container.datum.shape)
        self._arr = buffer.view(self.rect)
        self._attach(recorder, index)

    @property
    def duplicate(self) -> np.ndarray:
        return self._arr

    def scatter(self, flat_indices: np.ndarray, values: np.ndarray) -> None:
        flat = self._arr.reshape(-1)
        idx = np.asarray(flat_indices).reshape(-1)
        vals = np.asarray(values).reshape(-1)
        bad = (idx < 0) | (idx >= flat.size)
        if bad.any():
            # Negative indices used to wrap silently (python indexing),
            # corrupting the tail of the duplicate; both directions are
            # out-of-region writes.
            if self._recorder is None:
                raise DeviceError(
                    f"scatter index {int(idx[bad][0])} outside output "
                    f"extent [0, {flat.size})"
                )
            from repro.sanitize.recorder import AccessFlag

            offenders = idx[bad]
            self._recorder.flag(AccessFlag(
                kind="oob-write-index",
                container_index=self._rec_index,
                rect=Rect((int(offenders.min()), int(offenders.max()) + 1)),
                declared=Rect((0, flat.size)),
                detail=f"{offenders.size} scatter indices out of range",
            ))
            keep = ~bad
            idx, vals = idx[keep], vals[keep]
        if self._recorder is not None:
            self._recorder.record_scatter(self._rec_index, idx)
        flat[idx] = vals


def make_view(
    container,
    buffer: DeviceBuffer,
    work_shape: Sequence[int],
    work_rect: Rect,
    recorder: Optional[object] = None,
    index: int = 0,
):
    """Construct the device-level view matching a container's pattern.

    Args:
        container: The pattern container to build a view for.
        buffer: Device buffer holding (at least) the required region.
        work_shape: Full task work dimensions.
        work_rect: This device's share of the work space.
        recorder: Optional :class:`~repro.sanitize.recorder.AccessRecorder`
            — when present, the view records its accesses and resolves
            normally-fatal out-of-pattern accesses leniently.
        index: The container's index in the task's container tuple (used
            to attribute recorded accesses).
    """
    if isinstance(container, WindowND):
        return WindowView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, Block2D):
        return BlockView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(
        container, (Block2DTransposed, BlockStriped, BlockColumnStriped, FullReplicationInput)
    ):
        return FullView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, (StructuredInjective, InjectiveStriped, InjectiveColumnStriped)):
        return StructuredInjectiveView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, ReductiveStatic):
        return ReductiveStaticView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, (ReductiveDynamic, IrregularOutput)):
        return DynamicOutputView(container, buffer, work_shape, work_rect, recorder, index)
    if isinstance(container, UnstructuredInjective):
        return UnstructuredInjectiveView(container, buffer, work_shape, work_rect, recorder, index)
    raise PatternMismatchError(
        f"no device-level view for container type {type(container).__name__}"
    )
