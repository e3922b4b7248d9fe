"""Capped exponential backoff, shared by every retry and requeue policy."""

from __future__ import annotations


def capped_backoff(
    base: float, n: int, cap: float, what: str = "attempt"
) -> float:
    """Delay before the ``n``-th (1-based) retry: ``min(base * 2**(n-1),
    cap)``. ``what`` names ``n`` in the error raised when ``n < 1``."""
    if n < 1:
        raise ValueError(f"{what} is 1-based")
    return min(base * (2.0 ** (n - 1)), cap)
