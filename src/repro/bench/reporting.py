"""Result-table formatting and persistence for the benchmark harness."""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Sequence

import numpy as np


def fmt_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render an aligned plain-text table with a title rule."""
    headers = list(headers)
    rows = [list(r) for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def percentiles(xs: Sequence[float], qs: Sequence[int] = (50, 95)) -> dict:
    """``{"p<q>": the q-th percentile of xs}`` for each ``q`` in ``qs``
    (all 0.0 when ``xs`` is empty)."""
    if len(xs) == 0:
        return {f"p{q}": 0.0 for q in qs}
    arr = np.asarray(xs, dtype=float)
    return {f"p{q}": float(np.percentile(arr, q)) for q in qs}


def record_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result table and persist it under ``results_dir``."""
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}.txt").write_text(text)
    print(f"\n{text}")


def write_json(results: dict, path: str | pathlib.Path) -> None:
    """Persist a ``BENCH_*.json`` result tree (2-space indent, newline)."""
    pathlib.Path(path).write_text(json.dumps(results, indent=2) + "\n")


def best_of(
    run: Callable[[], dict], repeats: int, key: Callable[[dict], float]
) -> dict:
    """Call ``run`` ``repeats`` times; keep the result with the lowest
    ``key`` (the earliest on ties)."""
    return min((run() for _ in range(repeats)), key=key)
