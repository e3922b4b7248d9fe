#!/usr/bin/env python3
"""Compare two benchmark result files written by ``perf/run.py``.

Usage (from the repository root)::

    python perf/compare.py A.json B.json

Prints one row per workload and end-to-end metric, reading A as the
baseline and B as the candidate:

* ``unchanged`` — within the metric's bound (simulated metrics: equal);
* ``better`` / ``worse`` — moved past the bound in that direction;
* ``unresolved`` — either side's rounds spread wider than the bound, and
  neither side beats the other in every pair of rounds.

Direction and bound come from ``BENCHMARK.json``; metrics it does not list
(the simulated-time ones) are exact. Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import metrics as M

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bounds(path: pathlib.Path = ROOT / "BENCHMARK.json") -> dict:
    """metric name -> (better, bound) for the end-to-end metrics."""
    spec = json.loads(path.read_text())
    bounds = {m.name: (m.better, m.bound) for m in M.END_TO_END}
    for m in spec["end_to_end"]:
        bounds[m["name"]] = (m["better"], float(m["bound"]))
    return bounds


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict for baseline entry ``a`` and candidate entry ``b`` (each a
    result-file metric entry: ``value`` and, for host metrics, the
    per-round ``values``)."""
    va, vb = a["value"], b["value"]

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    if bound == 0.0:
        if va == vb:
            return "unchanged"
        return "better" if beats(vb, va) else "worse"
    ra, rb = a.get("values", [va]), b.get("values", [vb])
    if max(M.spread(ra), M.spread(rb)) > bound:
        if all(beats(y, x) for x in ra for y in rb):
            return "better"
        if all(beats(x, y) for x in ra for y in rb):
            return "worse"
        return "unresolved"
    change = (vb - va) / abs(va)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, bounds: dict) -> list[tuple]:
    """Rows ``(workload, metric, A, B, change, verdict)`` for every metric
    both files report."""
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, ea in wa["metrics"].items():
            eb = wb["metrics"].get(metric)
            if eb is None or metric not in bounds:
                continue
            better, bound = bounds[metric]
            va, vb = ea["value"], eb["value"]
            change = f"{(vb - va) / abs(va):+.1%}" if va else "-"
            rows.append((name, metric, f"{va:.6g}", f"{vb:.6g}", change,
                         verdict(ea, eb, better, bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    rows = compare(a, b, load_bounds())
    table = [("workload", "metric", "A", "B", "change", "verdict")] + rows
    widths = [max(len(r[i]) for r in table) for i in range(6)]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
