"""Shared utilities: rectangle algebra, unit helpers, deterministic RNG."""

from repro.utils.backoff import capped_backoff
from repro.utils.rect import Interval, Rect, bounding_box, coalesce, split_modular
from repro.utils.units import GB, GIB, KB, KIB, MB, MIB, fmt_bytes, fmt_time

__all__ = [
    "Interval",
    "Rect",
    "bounding_box",
    "capped_backoff",
    "coalesce",
    "split_modular",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "fmt_bytes",
    "fmt_time",
]
