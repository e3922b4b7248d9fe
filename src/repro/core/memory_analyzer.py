"""The Memory Analyzer (§4.2, Fig. 3).

Buffers must be allocated on each device separately. Of the three possible
strategies the paper discusses (full preallocation; on-demand runtime
allocation; requirement-based preallocation), MAPS-Multi implements the
third: ``AnalyzeCall`` declares each call before any invocation; the
analyzer tracks, per datum per device, the *N-dimensional bounding box*
of the currently-stored and predicted requirements, then allocates once,
contiguously, exactly that box. A call's per-device requirements are the
rects of its plan (:func:`~repro.core.plan.build_plan`), the same ones
every later invoke of the call runs: the analyzer folds a plan, it
computes no geometry of its own.

The Game of Life's double buffering (Fig. 3) demonstrates the asymmetry
this produces: after ``AnalyzeCall(Win2D(A), SMat(B))`` matrix A's
per-device box includes halo rows while B's does not; after the reversed
call both boxes include halos.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AllocationError, AnalysisError
from repro.core.plan import TaskPlan, build_plan
from repro.core.task import Task
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datum import Datum
    from repro.sim.node import SimNode


class MemoryAnalyzer:
    """Tracks per-(datum, device) requirement bounding boxes and owns the
    resulting one-shot allocations."""

    def __init__(self, node: "SimNode"):
        self.node = node
        #: (datum, device) -> bounding box in virtual datum coordinates.
        self._boxes: dict[tuple[int, int], Rect] = {}
        self._datums: dict[int, "Datum"] = {}
        #: (datum, device) -> allocated buffer.
        self._buffers: dict[tuple[int, int], DeviceBuffer] = {}

    # -- analysis -------------------------------------------------------------
    def analyze(
        self,
        task: Task,
        devices: tuple[int, ...] | None = None,
        weights: tuple[int, ...] | None = None,
        plan: TaskPlan | None = None,
    ) -> None:
        """Fold the rects of ``task``'s plan into the boxes: each active
        device's input requirements and owned output rects.

        ``plan`` is the task's plan under the alive set and weights it is
        analyzed for (a call template's); without one, an unstored plan
        is built from ``devices`` (default: all of the node's devices)
        and ``weights``, the ratio-aware split of the straggler feedback
        loop (DESIGN.md §11), which must match the segmentation the
        invoke will use. Must be called (via ``Scheduler.AnalyzeCall``)
        before any dependent invocation; invoking an unanalyzed task
        raises :class:`~repro.errors.AnalysisError`.
        """
        if plan is None:
            if devices is None:
                devices = tuple(range(self.node.num_gpus))
            plan = build_plan(task, devices, weights=weights, signature=())
        inputs, outputs = task.inputs, task.outputs
        for device in plan.active:
            dp = plan.device_plans[device]
            for c, req in zip(inputs, dp.input_reqs):
                self._merge(c.datum, device, req.virtual)
            for c, rect in zip(outputs, dp.output_rects):
                self._merge(c.datum, device, rect)

    def _merge(self, datum: "Datum", device: int, rect: Rect) -> None:
        key = (id(datum), device)
        self._datums[id(datum)] = datum
        prev = self._boxes.get(key)
        self._boxes[key] = rect if prev is None else prev.hull(rect)

    # -- queries ---------------------------------------------------------------
    def analyzed(self, datum: "Datum", device: int) -> bool:
        return (id(datum), device) in self._boxes

    def box(self, datum: "Datum", device: int) -> Rect:
        try:
            return self._boxes[(id(datum), device)]
        except KeyError:
            raise AnalysisError(
                f"datum {datum.name!r} was never analyzed for device "
                f"{device}; call AnalyzeCall before Invoke (§4.2)"
            ) from None

    # -- allocation ---------------------------------------------------------------
    def buffer(self, datum: "Datum", device: int) -> DeviceBuffer:
        """The device buffer for a datum, allocated on first use.

        The allocation covers exactly the analyzed bounding box —
        *"allocates the necessary memory once, creating contiguous
        buffers"* (§4.2).
        """
        key = (id(datum), device)
        buf = self._buffers.get(key)
        if buf is None:
            box = self.box(datum, device)
            buf = self.node.devices[device].memory.allocate(
                device, box, datum.dtype
            )
            self._buffers[key] = buf
        # LRU stamp: requesting a buffer is the "use" that eviction
        # ordering (DESIGN.md §10) is relative to.
        self.node.devices[device].memory.touch(buf)
        return buf

    def check_within(self, datum: "Datum", device: int, rect: Rect) -> None:
        """Raise if a task requires memory outside the analyzed box.

        Mirrors the paper's caveat (§4.2): if the programmer-provided
        patterns don't match the invocation, "a framework runtime error
        could occur when insufficient memory is allocated".
        """
        box = self.box(datum, device)
        if not box.contains(rect):
            raise AnalysisError(
                f"task requires {rect} of datum {datum.name!r} on device "
                f"{device}, but only {box} was analyzed/allocated"
            )

    def ensure(
        self,
        task: Task,
        devices: tuple[int, ...] | None = None,
        oom_handler=None,
        weights: tuple[int, ...] | None = None,
        plan: TaskPlan | None = None,
    ) -> None:
        """Analyze a task at invocation time, growing any live allocation
        whose bounding box expanded (the §8 "automated memory analysis"
        mode, also used after fault recovery re-segments work across the
        surviving devices). Growth reallocates and preserves existing
        contents; it trades Fig. 3's allocate-once guarantee for
        convenience.

        ``oom_handler(datum, device, exc)`` is consulted on a genuine
        out-of-memory failure while growing (DESIGN.md §10): return True to
        retry the grow after the handler freed memory, False to skip the
        grow (the handler evicted this very buffer; it will be re-staged
        lazily), anything else must raise. ``plan`` is as for
        :meth:`analyze`.
        """
        self.analyze(task, devices, weights=weights, plan=plan)
        self._grow_buffers(oom_handler)

    def _grow_buffers(self, oom_handler=None) -> None:
        """Grow every live buffer whose analyzed box expanded."""
        for key, buf in list(self._buffers.items()):
            while True:
                if self._buffers.get(key) is not buf:
                    # Evicted by the oom_handler while an earlier buffer in
                    # this snapshot was being grown; it will be re-staged
                    # lazily — growing its freed carcass would resurrect it
                    # empty.
                    break
                box = self._boxes.get(key)
                if box is None or buf.rect.contains(box):
                    break
                did, device = key
                memory = self.node.devices[device].memory
                try:
                    grown = memory.allocate(device, box, buf.dtype)
                except AllocationError as e:
                    if e.injected or oom_handler is None:
                        raise
                    if oom_handler(self._datums[did], device, e):
                        # Handler made room without touching this buffer;
                        # retry unless it was evicted out from under us.
                        if self._buffers.get(key) is not buf:
                            break
                        continue
                    break
                if grown.data is not None and buf.data is not None:
                    grown.view(buf.rect)[...] = buf.data
                memory.free(buf)
                self._buffers[key] = grown
                break

    def absorb(self, datum: "Datum", device: int, rect: Rect) -> None:
        """Widen the (datum, device) box to cover ``rect`` and grow any
        live buffer accordingly (contents preserved).

        Used by speculative segment re-execution (DESIGN.md §11): the
        alternate device must hold the lagging device's inputs and outputs
        before it can recompute that segment. Raises
        :class:`~repro.errors.AllocationError` when the device cannot fit
        the widened box — the caller abandons the speculation.
        """
        self._merge(datum, device, rect)
        key = (id(datum), device)
        buf = self._buffers.get(key)
        box = self._boxes[key]
        if buf is None or buf.rect.contains(box):
            return
        memory = self.node.devices[device].memory
        grown = memory.allocate(device, box, buf.dtype)
        if grown.data is not None and buf.data is not None:
            grown.view(buf.rect)[...] = buf.data
        memory.free(buf)
        self._buffers[key] = grown

    def evict(self, datum: "Datum", device: int) -> int:
        """Free the datum's buffer on the device, keeping the analyzed box
        (the buffer is re-allocated lazily on next :meth:`buffer`). Returns
        the bytes released. Safety (no sole copy lost) is the caller's
        responsibility — see ``LocationMonitor.evictable``.
        """
        buf = self._buffers.pop((id(datum), device), None)
        if buf is None:
            return 0
        self.node.devices[device].memory.free(buf)
        return buf.nbytes

    def buffers_on(self, device: int) -> list[tuple["Datum", DeviceBuffer]]:
        """Live (datum, buffer) pairs on a device — eviction candidates."""
        return [
            (self._datums[did], buf)
            for (did, dev), buf in self._buffers.items()
            if dev == device
        ]

    def has_buffer(self, datum: "Datum", device: int) -> bool:
        return (id(datum), device) in self._buffers

    def drop_device(self, device: int) -> None:
        """Forget all boxes and buffers on a permanently-failed device.

        The buffers are freed for accounting hygiene only — the device's
        contents are gone either way. Re-analysis over the surviving set
        (``ensure``) then rebuilds the survivors' boxes, which typically
        grow to absorb the dead device's share.
        """
        for key in [k for k in self._boxes if k[1] == device]:
            del self._boxes[key]
        for key, buf in [
            (k, b) for k, b in self._buffers.items() if k[1] == device
        ]:
            self.node.devices[device].memory.free(buf)
            del self._buffers[key]

    def release(self, datum: "Datum") -> None:
        """Free all device buffers of a datum (not part of the paper API;
        used by long-running applications to recycle memory)."""
        for (did, device), buf in list(self._buffers.items()):
            if did == id(datum):
                self.node.devices[device].memory.free(buf)
                del self._buffers[(did, device)]

    def release_all(self) -> None:
        """Free every live buffer and forget all analyses — the job
        server's lease teardown (DESIGN.md §13): the next tenant must find
        the devices exactly as empty as this one did."""
        for (did, device), buf in self._buffers.items():
            self.node.devices[device].memory.free(buf)
        self._buffers.clear()
        self._boxes.clear()
        self._datums.clear()

    def allocation_report(self) -> dict[str, dict[int, int]]:
        """Bytes allocated per datum name per device (for tests/examples)."""
        report: dict[str, dict[int, int]] = {}
        for (did, device), buf in self._buffers.items():
            name = self._datums[did].name
            report.setdefault(name, {})[device] = buf.nbytes
        return report
