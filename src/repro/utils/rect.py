"""N-dimensional half-open rectangle (hyper-rectangle) algebra.

The MAPS-Multi framework reasons about data requirements as axis-aligned
N-dimensional rectangles over datum index space: the Memory Analyzer keeps
per-device *bounding boxes* of requirements (paper §4.2), and the Segment
Location Monitor computes *rectangular intersections* between required
segments and the ``lastOutput`` segments on each device (Algorithm 2,
line 10).

A :class:`Rect` is a tuple of half-open intervals ``[begin, end)`` — one per
dimension, outermost dimension first (C order, matching numpy). Rectangles
are immutable and hashable.

Wrap-around boundary conditions (``WRAP``) produce *source* regions that may
fall outside the datum extent; :func:`split_modular` splits such a rectangle
into in-bounds pieces with modular coordinates, which is how ghost-region
exchanges for periodic stencils are realized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open 1-D interval ``[begin, end)``."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.begin:
            raise ValueError(f"interval end {self.end} < begin {self.begin}")

    @property
    def size(self) -> int:
        return self.end - self.begin

    @property
    def empty(self) -> bool:
        return self.end <= self.begin

    def intersect(self, other: "Interval") -> "Interval":
        b = max(self.begin, other.begin)
        e = min(self.end, other.end)
        if e < b:
            e = b
        return Interval(b, e)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (empty intervals are identities)."""
        if self.empty:
            return other
        if other.empty:
            return self
        return Interval(min(self.begin, other.begin), max(self.end, other.end))

    def contains(self, other: "Interval") -> bool:
        if other.empty:
            return True
        return self.begin <= other.begin and other.end <= self.end

    def shift(self, offset: int) -> "Interval":
        return Interval(self.begin + offset, self.end + offset)

    def expand(self, lo: int, hi: int | None = None) -> "Interval":
        """Grow by ``lo`` below and ``hi`` above (``hi`` defaults to ``lo``)."""
        if hi is None:
            hi = lo
        return Interval(self.begin - lo, self.end + hi)

    def clamp(self, lo: int, hi: int) -> "Interval":
        b = min(max(self.begin, lo), hi)
        e = min(max(self.end, lo), hi)
        return Interval(b, e)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.begin},{self.end})"


class Rect:
    """An immutable N-dimensional half-open rectangle.

    Construct from per-dimension ``(begin, end)`` pairs::

        Rect((0, 4), (2, 8))          # rows [0,4), cols [2,8)
        Rect.from_shape((4, 6))       # [0,4) x [0,6)

    The empty rectangle of dimension *n* is any rect with a zero-size
    dimension; all empty rects of the same dimensionality compare unequal in
    coordinates but behave identically under intersection/union logic via
    :attr:`empty`.

    Rects are hot objects — the scheduler evaluates thousands per
    invocation — so the derived values the functional payloads recompute
    most (:attr:`size` and the origin-free :meth:`slices` tuple) are cached
    lazily. Caching is safe because the coordinate tuple is immutable;
    equality and hashing (needed so invocation plans can key on rects) only
    consult the coordinates.
    """

    __slots__ = ("_ivals", "_size", "_slices", "_hash")

    def __init__(self, *intervals: Interval | tuple[int, int] | Sequence[int]):
        ivals = []
        for iv in intervals:
            if isinstance(iv, Interval):
                ivals.append(iv)
            else:
                b, e = iv
                ivals.append(Interval(int(b), int(e)))
        if not ivals:
            raise ValueError("Rect needs at least one dimension")
        object.__setattr__(self, "_ivals", tuple(ivals))
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_slices", None)
        object.__setattr__(self, "_hash", None)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def _new(ivals: tuple[Interval, ...]) -> "Rect":
        """Internal fast constructor from a validated interval tuple.

        The hot algebra (``intersect``/``subtract``, thousands of calls per
        scheduled invocation) builds results through this path, skipping the
        per-argument coercion of ``__init__``.
        """
        r = Rect.__new__(Rect)
        r._ivals = ivals
        r._size = None
        r._slices = None
        r._hash = None
        return r

    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Rect":
        """The full extent ``[0, s)`` in every dimension."""
        return Rect(*[(0, int(s)) for s in shape])

    @staticmethod
    def empty_like(ndim: int) -> "Rect":
        """A canonical empty rect of the given dimensionality."""
        return Rect(*[(0, 0)] * ndim)

    # -- basic properties --------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self._ivals)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._ivals

    @property
    def begin(self) -> tuple[int, ...]:
        return tuple(iv.begin for iv in self._ivals)

    @property
    def end(self) -> tuple[int, ...]:
        return tuple(iv.end for iv in self._ivals)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(iv.size for iv in self._ivals)

    @property
    def size(self) -> int:
        """Number of elements covered (product of extents; cached)."""
        n = self._size
        if n is None:
            n = 1
            for iv in self._ivals:
                n *= iv.end - iv.begin
            object.__setattr__(self, "_size", n)
        return n

    @property
    def empty(self) -> bool:
        # Intervals are non-negative in extent, so "some dimension empty"
        # is exactly "the (cached) element count is zero".
        return self.size == 0

    def __getitem__(self, dim: int) -> Interval:
        return self._ivals[dim]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self._ivals == other._ivals

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._ivals)
            self._hash = h
        return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Rect(" + " x ".join(repr(iv) for iv in self._ivals) + ")"

    # -- algebra ------------------------------------------------------------
    def _check_ndim(self, other: "Rect") -> None:
        if self.ndim != other.ndim:
            raise ValueError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )

    def intersect(self, other: "Rect") -> "Rect":
        """Rectangular intersection (Algorithm 2, line 10)."""
        a = self._ivals
        b = other._ivals
        if len(a) != len(b):
            self._check_ndim(other)
        out = []
        for x, y in zip(a, b):
            bb = x.begin if x.begin >= y.begin else y.begin
            ee = x.end if x.end <= y.end else y.end
            if ee < bb:
                ee = bb
            # Reuse an operand's interval when it equals the result —
            # the common cases (containment / identity) allocate nothing.
            if bb == x.begin and ee == x.end:
                out.append(x)
            elif bb == y.begin and ee == y.end:
                out.append(y)
            else:
                out.append(Interval(bb, ee))
        return Rect._new(tuple(out))

    def hull(self, other: "Rect") -> "Rect":
        """N-d bounding box of both rects (Memory Analyzer, §4.2); an
        operand that holds the other is the result itself."""
        self._check_ndim(other)
        if self.empty:
            return other
        if other.empty or self.contains(other):
            return self
        if other.contains(self):
            return other
        return Rect._new(tuple(
            [a.hull(b) for a, b in zip(self._ivals, other._ivals)]
        ))

    def contains(self, other: "Rect") -> bool:
        a = self._ivals
        b = other._ivals
        if len(a) != len(b):
            self._check_ndim(other)
        if other.empty:
            return True
        if self.empty:
            return False
        for x, y in zip(a, b):
            if y.begin < x.begin or x.end < y.end:
                return False
        return True

    def contains_point(self, point: Sequence[int]) -> bool:
        return all(
            iv.begin <= p < iv.end for iv, p in zip(self._ivals, point)
        )

    def overlaps(self, other: "Rect") -> bool:
        a = self._ivals
        b = other._ivals
        if len(a) != len(b):
            self._check_ndim(other)
        for x, y in zip(a, b):
            # Empty overlap in this dimension (covers empty operands too).
            lo = x.begin if x.begin >= y.begin else y.begin
            hi = x.end if x.end <= y.end else y.end
            if hi <= lo:
                return False
        return True

    def shift(self, offsets: Sequence[int]) -> "Rect":
        if len(offsets) != self.ndim:
            raise ValueError("offset dimensionality mismatch")
        return Rect(*[iv.shift(o) for iv, o in zip(self._ivals, offsets)])

    def expand(self, margins: Sequence[int] | int) -> "Rect":
        """Grow symmetrically by per-dimension margins (stencil halo)."""
        if isinstance(margins, int):
            margins = [margins] * self.ndim
        if len(margins) != self.ndim:
            raise ValueError("margin dimensionality mismatch")
        return Rect(*[iv.expand(m) for iv, m in zip(self._ivals, margins)])

    def clip(self, bounds: "Rect") -> "Rect":
        """Clamp into ``bounds`` (used for CLAMP/ZERO boundary conditions)."""
        self._check_ndim(bounds)
        return Rect(
            *[
                iv.clamp(b.begin, b.end)
                for iv, b in zip(self._ivals, bounds._ivals)
            ]
        )

    def subtract(self, other: "Rect") -> list["Rect"]:
        """Set difference ``self \\ other`` as a list of disjoint rects.

        Used by the location monitor to track which parts of a required
        segment are still missing after accounting for up-to-date instances.
        The decomposition splits along each dimension in turn (guillotine
        cuts), producing at most ``2*ndim`` pieces.
        """
        a = self._ivals
        b = other._ivals
        if len(a) != len(b):
            self._check_ndim(other)
        # Inline intersection; bail out (the common cases) without
        # allocating any intermediate Rect.
        inter: list[Interval] = []
        identical = True
        for x, y in zip(a, b):
            bb = x.begin if x.begin >= y.begin else y.begin
            ee = x.end if x.end <= y.end else y.end
            if ee <= bb:
                return [] if self.empty else [self]
            if bb != x.begin or ee != x.end:
                identical = False
                inter.append(Interval(bb, ee))
            else:
                inter.append(x)
        if identical:
            return []
        pieces: list[Rect] = []
        remaining = list(a)
        for d in range(len(a)):
            iv = remaining[d]
            cut = inter[d]
            if iv.begin < cut.begin:
                lo = list(remaining)
                lo[d] = Interval(iv.begin, cut.begin)
                pieces.append(Rect._new(tuple(lo)))
            if cut.end < iv.end:
                hi = list(remaining)
                hi[d] = Interval(cut.end, iv.end)
                pieces.append(Rect._new(tuple(hi)))
            remaining[d] = cut
        return pieces

    def subtract_all(self, others: Iterable["Rect"]) -> list["Rect"]:
        """Set difference against several rects."""
        parts = [self] if not self.empty else []
        for other in others:
            nxt: list[Rect] = []
            for p in parts:
                nxt.extend(p.subtract(other))
            parts = nxt
            if not parts:
                break
        return parts

    # -- numpy interop ------------------------------------------------------
    def slices(self, origin: Sequence[int] | None = None) -> tuple[slice, ...]:
        """Numpy slicing tuple, optionally relative to a buffer origin.

        The origin-free form (the common case in functional payloads) is
        computed once per rect and cached.
        """
        if origin is None:
            s = self._slices
            if s is None:
                s = tuple(slice(iv.begin, iv.end) for iv in self._ivals)
                object.__setattr__(self, "_slices", s)
            return s
        return tuple(
            slice(iv.begin - o, iv.end - o)
            for iv, o in zip(self._ivals, origin)
        )

    # -- iteration ----------------------------------------------------------
    def points(self) -> Iterator[tuple[int, ...]]:
        """Iterate all integer points (tests on tiny rects only)."""
        return itertools.product(
            *[range(iv.begin, iv.end) for iv in self._ivals]
        )


def bounding_box(rects: Iterable[Rect]) -> Rect | None:
    """N-d bounding box of a collection of rects; ``None`` if all empty."""
    box: Rect | None = None
    for r in rects:
        if r.empty:
            continue
        box = r if box is None else box.hull(r)
    return box


def split_modular(rect: Rect, shape: Sequence[int]) -> list[tuple[Rect, Rect]]:
    """Split an out-of-bounds rect into in-bounds modular pieces.

    For WRAP boundary conditions, a required source region such as rows
    ``[-1, 0)`` of an ``H``-row matrix actually refers to rows
    ``[H-1, H)``. This function decomposes ``rect`` into pieces that lie
    fully within ``[0, shape)`` and returns ``(virtual_piece, actual_piece)``
    pairs: the *virtual* piece in the original (possibly out-of-bounds)
    coordinates, and the *actual* in-bounds piece it maps to.

    ``rect`` must not extend more than one full period beyond the bounds in
    any dimension (stencil radii are assumed smaller than the datum). Note
    that distinct virtual pieces may map to the same actual region (a halo
    aliasing the interior when a stripe nearly spans the datum); callers
    that cannot tolerate aliasing detect it via
    :func:`repro.core.buffers.locate_virtual`.
    """
    ndim = rect.ndim
    if len(shape) != ndim:
        raise ValueError("shape dimensionality mismatch")
    for d in range(ndim):
        iv = rect[d]
        if iv.begin < -shape[d] or iv.end > 2 * shape[d]:
            raise ValueError(f"rect exceeds one period beyond bounds in dim {d}")

    # Per-dimension: list of (virtual interval, wrap offset) pieces.
    per_dim: list[list[tuple[Interval, int]]] = []
    for d in range(ndim):
        iv = rect[d]
        n = shape[d]
        pieces: list[tuple[Interval, int]] = []
        # below-bounds part
        if iv.begin < 0:
            pieces.append((Interval(iv.begin, min(iv.end, 0)), n))
        # in-bounds part
        b, e = max(iv.begin, 0), min(iv.end, n)
        if e > b:
            pieces.append((Interval(b, e), 0))
        # above-bounds part
        if iv.end > n:
            pieces.append((Interval(max(iv.begin, n), iv.end), -n))
        per_dim.append(pieces)

    result: list[tuple[Rect, Rect]] = []
    for combo in itertools.product(*per_dim):
        virtual = Rect(*[c[0] for c in combo])
        actual = virtual.shift([c[1] for c in combo])
        if not virtual.empty:
            result.append((virtual, actual))
    return result


def coalesce(rects: list[Rect]) -> list[Rect]:
    """Merge adjacent rects that differ only along one dimension.

    A light-weight cleanup pass used when accumulating up-to-date segment
    instances, keeping the location-monitor lists short. This is a greedy
    single pass repeated to fixpoint; it does not guarantee a minimal
    cover, only a correct one.
    """
    rects = [r for r in rects if not r.empty]
    changed = True
    while changed:
        changed = False
        out: list[Rect] = []
        used = [False] * len(rects)
        for i, a in enumerate(rects):
            if used[i]:
                continue
            merged = a
            for j in range(i + 1, len(rects)):
                if used[j]:
                    continue
                m = _try_merge(merged, rects[j])
                if m is not None:
                    merged = m
                    used[j] = True
                    changed = True
            out.append(merged)
        rects = out
    return rects


def _try_merge(a: Rect, b: Rect) -> Rect | None:
    """Merge two rects if they tile a larger rect exactly, else None."""
    if a.ndim != b.ndim:
        return None
    if a.contains(b):
        return a
    if b.contains(a):
        return b
    diff_dim = -1
    for d in range(a.ndim):
        if a[d] != b[d]:
            if diff_dim >= 0:
                return None
            diff_dim = d
    if diff_dim < 0:
        return a
    ia, ib = a[diff_dim], b[diff_dim]
    if ia.end < ib.begin or ib.end < ia.begin:
        return None  # disjoint with a gap
    merged = list(a.intervals)
    merged[diff_dim] = Interval(min(ia.begin, ib.begin), max(ia.end, ib.end))
    return Rect(*merged)
