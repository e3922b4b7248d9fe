"""Datum objects: N-dimensional data structures bound to host buffers.

Per the paradigm (§2.1), *"host memory management is not a part of the
paradigm, each datum is bound to an existing host buffer"* — hence the
:meth:`Datum.bind` method mirroring the paper's ``Datum::Bind`` (Table 2,
Fig. 2a lines 8–9). In timing-only simulation mode a datum may stay
unbound; only its shape and dtype are used.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from repro.errors import PatternMismatchError
from repro.utils.rect import Rect

_anon = itertools.count()


class Datum:
    """An N-dimensional datum distributed by the framework.

    Attributes:
        name: Identifier used in traces and error messages.
        shape: Full N-d extent.
        extent: The full :class:`~repro.utils.rect.Rect` of ``shape``
            (computed once: the shape never changes).
        dtype: Element type.
        host: Bound host buffer (``None`` until :meth:`bind`, or forever in
            timing-only mode).
    """

    def __init__(
        self,
        shape: Sequence[int],
        dtype: np.dtype | type = np.float32,
        name: str | None = None,
    ):
        self.shape = tuple(int(s) for s in shape)
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ValueError(f"invalid datum shape {self.shape}")
        self.extent = Rect.from_shape(self.shape)
        self.dtype = np.dtype(dtype)
        self.name = name or f"datum{next(_anon)}"
        self.host: Optional[np.ndarray] = None

    # -- paper API ---------------------------------------------------------
    def bind(self, host_buffer: np.ndarray) -> "Datum":
        """Register an existing host buffer as this datum's storage.

        The buffer must match the datum's shape and dtype exactly; the
        framework gathers results back *into this buffer* (Table 2).
        Returns self for chaining.
        """
        if host_buffer.shape != self.shape:
            raise PatternMismatchError(
                f"bind: buffer shape {host_buffer.shape} != datum shape "
                f"{self.shape} for {self.name!r}"
            )
        if host_buffer.dtype != self.dtype:
            raise PatternMismatchError(
                f"bind: buffer dtype {host_buffer.dtype} != datum dtype "
                f"{self.dtype} for {self.name!r}"
            )
        if not host_buffer.flags.c_contiguous:
            raise PatternMismatchError(
                f"bind: buffer for {self.name!r} must be C-contiguous"
            )
        self.host = host_buffer
        return self

    # -- properties ----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def bound(self) -> bool:
        return self.host is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Datum({self.name!r}, shape={self.shape}, dtype={self.dtype}, "
            f"{'bound' if self.bound else 'unbound'})"
        )


class Matrix(Datum):
    """A 2-D datum (paper: ``Matrix<T> A(width, height)``)."""

    def __init__(
        self,
        rows: int,
        cols: int,
        dtype: np.dtype | type = np.float32,
        name: str | None = None,
    ):
        super().__init__((rows, cols), dtype, name)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]


class Vector(Datum):
    """A 1-D datum."""

    def __init__(
        self,
        length: int,
        dtype: np.dtype | type = np.float32,
        name: str | None = None,
    ):
        super().__init__((length,), dtype, name)

    @property
    def length(self) -> int:
        return self.shape[0]


def from_array(array: np.ndarray, name: str | None = None) -> Datum:
    """Create and bind a datum around an existing host array."""
    d = Datum(array.shape, array.dtype, name)
    d.bind(np.ascontiguousarray(array))
    return d
