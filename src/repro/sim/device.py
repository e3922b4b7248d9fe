"""A simulated GPU device: memory, engines, streams."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.calibration import GpuCalibration, calibration_for
from repro.hardware.specs import GPUSpec
from repro.sim.memory import DeviceMemory


@dataclass(eq=False)
class EngineState:
    """One serially-occupied hardware engine (compute or copy)."""

    name: str
    busy_until: float = 0.0
    busy_time: float = 0.0  # accumulated occupancy, for utilization stats

    def occupy(self, start: float, end: float) -> None:
        self.busy_until = end
        self.busy_time += end - start


class Device:
    """A simulated GPU.

    Each device owns a compute engine, two copy engines (§2: "modern GPUs
    are equipped with multiple memory copy engines that allow simultaneous
    two-way memory transfer") and a global-memory allocator. Its streams
    are the node's (``SimNode.new_stream``), which drops them when their
    scheduler is released.
    """

    def __init__(self, index: int, spec: GPUSpec, functional: bool):
        self.index = index
        self.spec = spec
        self.calib: GpuCalibration = calibration_for(spec)
        self.memory = DeviceMemory(spec.global_memory_bytes, functional)
        self.compute = EngineState(f"gpu{index}.compute")
        self.copy_in = EngineState(f"gpu{index}.copy-in")
        self.copy_out = EngineState(f"gpu{index}.copy-out")

    def engines(self) -> list[EngineState]:
        return [self.compute, self.copy_in, self.copy_out]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.index}, {self.spec.name})"
