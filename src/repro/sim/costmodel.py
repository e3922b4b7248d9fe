"""Kernel duration models.

Kernel timing uses a first-order roofline: a kernel is limited by whichever
is slowest of its compute, memory traffic and atomic-update components, plus
the fixed launch latency. Built-in kernels provide their component counts;
calibrated effective rates come from
:mod:`repro.hardware.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.calibration import (
    GpuCalibration,
    InterconnectCalibration,
    calibration_for,
)
from repro.hardware.specs import GPUSpec


@dataclass(frozen=True)
class KernelCost:
    """Resource counts of one kernel launch on one device.

    Attributes:
        flops: Floating-point (or integer ALU) operations.
        bytes_moved: Global-memory traffic in bytes (reads + writes).
        global_atomics: Contended global atomic operations.
        rate_elements: When set with ``fixed_rate``, overrides the roofline
            with ``elements / rate`` — used for calibrated end-to-end kernel
            rates such as the Game-of-Life variants.
        fixed_rate: Calibrated elements/second matching ``rate_elements``.
        efficiency: Fraction of device FMA peak achievable for the compute
            component (1.0 = peak).
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    global_atomics: float = 0.0
    rate_elements: float = 0.0
    fixed_rate: float = 0.0
    efficiency: float = 1.0

    def duration(
        self,
        spec: GPUSpec,
        calib: GpuCalibration | None = None,
        interconnect: InterconnectCalibration | None = None,
    ) -> float:
        """Modelled execution time on ``spec``, excluding launch latency."""
        calib = calib or calibration_for(spec)
        t = 0.0
        if self.rate_elements and self.fixed_rate:
            t = max(t, self.rate_elements / self.fixed_rate)
        if self.flops:
            t = max(
                t, self.flops / (spec.peak_sp_gflops * 1e9 * self.efficiency)
            )
        if self.bytes_moved:
            t = max(
                t, self.bytes_moved / (spec.mem_bandwidth * calib.stream_efficiency)
            )
        if self.global_atomics:
            t = max(t, self.global_atomics / calib.global_atomic_rate)
        return t
