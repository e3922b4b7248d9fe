"""ASCII timeline rendering of an execution trace.

Turns a :class:`~repro.sim.trace.Trace` into a per-resource Gantt chart,
useful for eyeballing what the scheduler overlapped — the simulation-side
equivalent of a profiler timeline::

    gpu0.compute |----kernel----|        |----kernel----|
    gpu0.copy-in      |--copy--|
    ...
"""

from __future__ import annotations

from collections import defaultdict

from repro.hardware.topology import HOST
from repro.sim.trace import Trace, TraceRecord


def _lanes_of(rec: TraceRecord) -> tuple[str, ...]:
    """Resource lanes a record occupies.

    Most records occupy exactly one lane; a device-to-device memcpy
    occupies two — the source's copy-out engine *and* the destination's
    copy-in engine (the engine models both as busy, and the timeline must
    agree or the destination looks idle while it cannot accept work).
    """
    if rec.kind == "kernel":
        return (f"gpu{rec.device}.compute",)
    if rec.kind == "host":
        return ("host",)
    if rec.kind == "event":
        if rec.device == HOST:
            return ("host",)
        return (f"gpu{rec.device}.events",)
    if rec.kind == "memcpy":
        if rec.device == HOST:
            return (f"gpu{rec.src}.copy-out",)
        if rec.src == HOST:
            return (f"gpu{rec.device}.copy-in",)
        return (f"gpu{rec.src}.copy-out", f"gpu{rec.device}.copy-in")
    return ("other",)


def render_timeline(
    trace: Trace,
    width: int = 100,
    start: float | None = None,
    end: float | None = None,
    min_label: int = 4,
) -> str:
    """Render the trace as an ASCII Gantt chart.

    Args:
        trace: The trace to render.
        width: Chart width in characters.
        start, end: Time window (defaults to the trace's extent).
        min_label: Minimum bar width (chars) to embed the record's label.
    """
    records = [r for r in trace if r.end > r.start]
    if not records:
        return "(empty trace)\n"
    t0 = min(r.start for r in records) if start is None else start
    t1 = max(r.end for r in records) if end is None else end
    span = max(t1 - t0, 1e-12)
    scale = width / span

    lanes: dict[str, list[TraceRecord]] = defaultdict(list)
    for r in records:
        if r.end <= t0 or r.start >= t1:
            continue
        for lane in _lanes_of(r):
            lanes[lane].append(r)

    name_w = max(len(n) for n in lanes) + 1
    lines = [
        f"{'':{name_w}} t0={t0:.6f}s  span={span * 1e3:.3f} ms  "
        f"({'|' + '-' * (width - 2) + '|'})"
    ]
    for lane in sorted(lanes):
        row = [" "] * width
        for r in sorted(lanes[lane], key=lambda x: x.start):
            a = max(0, int((r.start - t0) * scale))
            b = min(width, max(a + 1, int((r.end - t0) * scale)))
            fill = "#" if r.kind == "kernel" else ("=" if r.kind == "memcpy" else "~")
            for i in range(a, b):
                row[i] = fill
            label = r.label[: b - a]
            if len(label) >= min_label and b - a >= len(label):
                for i, ch in enumerate(label):
                    row[a + i] = ch
        lines.append(f"{lane:{name_w}}{''.join(row)}")
    lines.append(
        f"{'':{name_w}}(# kernel, = memcpy, ~ host op)"
    )
    return "\n".join(lines) + "\n"


def utilization(trace: Trace) -> dict[str, float]:
    """Busy fraction per lane over the trace's makespan."""
    records = [r for r in trace if r.end > r.start]
    if not records:
        return {}
    t0 = min(r.start for r in records)
    t1 = max(r.end for r in records)
    span = max(t1 - t0, 1e-12)
    busy: dict[str, float] = defaultdict(float)
    for r in records:
        for lane in _lanes_of(r):
            busy[lane] += r.duration
    return {lane: b / span for lane, b in sorted(busy.items())}
