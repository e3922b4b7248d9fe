"""Experiment drivers: one function per paper table/figure (§5).

Each driver assembles the workload at paper scale on a timing-only
simulated node and returns structured results; the ``benchmarks/`` suite
prints them in the paper's format and asserts the qualitative shape
(who wins, rough factors, crossovers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import drain, steady
from repro.core import Matrix, Scheduler, Vector
from repro.hardware.calibration import calibration_for
from repro.hardware.specs import GPUSpec
from repro.kernels.game_of_life import gol_loop
from repro.kernels.histogram import histogram_loop
from repro.libs.cublas import sgemm_chain
from repro.libs.cublasxt import XtGemm, make_xt_node
from repro.sim.node import SimNode

#: Board/image/matrix edge used throughout §5 ("8K square").
PAPER_SIZE = 8192
#: Histogram bins (§5.3).
PAPER_BINS = 256


@dataclass
class ScalingResult:
    """Times and speedups of one app across GPU counts."""

    app: str
    gpu_counts: list[int]
    times: list[float]  # seconds per iteration/call
    speedups: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.speedups and self.times:
            base = self.times[0]
            self.speedups = [base / t for t in self.times]


def _per_iter(spec: GPUSpec, num_gpus: int, iters: int, build) -> float:
    """Steady-state simulated seconds per iteration of ``build(sched)``'s
    loop, after a warm-up iteration that pays the initial distribution."""
    node = SimNode(spec, num_gpus, functional=False)
    loop = build(Scheduler(node))
    loop.warm_up()
    t0 = node.time
    steady(loop, iters)
    drain(loop, iters)
    return (node.time - t0) / iters


# -- Game of Life --------------------------------------------------------------
def run_gol(
    spec: GPUSpec,
    num_gpus: int,
    size: int = PAPER_SIZE,
    iters: int = 10,
    variant: str = "maps_ilp",
) -> float:
    """Steady-state seconds per Game-of-Life tick over MAPS-Multi."""
    return _per_iter(spec, num_gpus, iters, lambda sched: gol_loop(
        sched,
        Matrix(size, size, np.int32, "A"),
        Matrix(size, size, np.int32, "B"),
        variant,
    ))


def gol_scaling(spec: GPUSpec, gpu_counts=(1, 2, 3, 4)) -> ScalingResult:
    times = [run_gol(spec, g) for g in gpu_counts]
    return ScalingResult("Game of Life", list(gpu_counts), times)


def gol_single_gpu_variants(
    spec: GPUSpec, size: int = PAPER_SIZE, iters: int = 10
) -> dict[str, float]:
    """Fig. 7: naive vs MAPS vs MAPS+ILP on a single GPU."""
    return {
        variant: run_gol(spec, 1, size, iters, variant)
        for variant in ("naive", "maps", "maps_ilp")
    }


# -- Histogram ------------------------------------------------------------------
def run_histogram(
    spec: GPUSpec,
    num_gpus: int,
    impl: str = "maps",
    size: int = PAPER_SIZE,
    bins: int = PAPER_BINS,
    iters: int = 10,
) -> float:
    """Seconds per 256-bin histogram of a resident size^2 8-bit image,
    including the partial-result aggregation.

    The measured loop is kernel throughput (§5.1: the histogram requires
    no inter-GPU communication); the 1 KiB partial aggregation happens
    once at the end and is amortized."""
    return _per_iter(spec, num_gpus, iters, lambda sched: histogram_loop(
        sched,
        Matrix(size, size, np.uint8, "image"),
        Vector(bins, np.int32, "hist"),
        impl,
    ))


def histogram_scaling(
    spec: GPUSpec, impl: str = "maps", gpu_counts=(1, 2, 3, 4)
) -> ScalingResult:
    times = [run_histogram(spec, g, impl) for g in gpu_counts]
    return ScalingResult(f"Histogram ({impl})", list(gpu_counts), times)


# -- SGEMM over unmodified CUBLAS -----------------------------------------------
def run_gemm_chain(
    spec: GPUSpec,
    num_gpus: int,
    size: int = PAPER_SIZE,
    chain: int = 10,
) -> float:
    """Steady-state seconds per multiplication in a chain
    X_{i+1} = X_i @ B of size^2 matrices (the §5.4 workload), running
    unmodified CUBLAS under MAPS-Multi."""
    return _per_iter(spec, num_gpus, chain, lambda sched: sgemm_chain(
        sched,
        Matrix(size, size, np.float32, "X"),
        Matrix(size, size, np.float32, "B"),
        Matrix(size, size, np.float32, "Y"),
    ))


def gemm_scaling(spec: GPUSpec, gpu_counts=(1, 2, 3, 4)) -> ScalingResult:
    times = [run_gemm_chain(spec, g) for g in gpu_counts]
    return ScalingResult("SGEMM (CUBLAS over MAPS)", list(gpu_counts), times)


def run_xt_gemm(spec: GPUSpec, num_gpus: int, size: int, calls: int) -> float:
    """Seconds per CUBLAS-XT multiplication: ``calls`` timed calls after
    a warm-up call."""
    node = make_xt_node(spec, num_gpus)
    xt = XtGemm(node)
    xt.gemm(size)
    t0 = node.time
    for _ in range(calls):
        xt.gemm(size)
    return (node.time - t0) / calls


def xt_gemm_scaling(
    spec: GPUSpec, gpu_counts=(1, 2, 3, 4), size: int = PAPER_SIZE,
    calls: int = 2,
) -> ScalingResult:
    """CUBLAS-XT chain: every call pays host round trips (Fig. 9)."""
    times = [run_xt_gemm(spec, g, size, calls) for g in gpu_counts]
    return ScalingResult("SGEMM (CUBLAS-XT)", list(gpu_counts), times)


# -- Deep learning (Fig. 11) ------------------------------------------------------
def deep_learning_throughput(
    spec: GPUSpec, gpu_counts=(1, 2, 3, 4), batch: int = 2048
) -> dict[str, list[float]]:
    """Training throughput (images/s) for the Fig. 11 contenders:
    MAPS-Multi and the Torch-like baseline in both concurrency schemes,
    plus the single-GPU Caffe-like baseline."""
    from repro.apps.lenet import LeNetParams, MapsLeNetTrainer
    from repro.baselines import CaffeLikeLeNet, TorchLikeLeNet

    results: dict[str, list[float]] = {}
    for mode in ("data", "hybrid"):
        maps = []
        torch = []
        for g in gpu_counts:
            trainer = MapsLeNetTrainer(
                Scheduler(SimNode(spec, g, functional=False)),
                LeNetParams.initialize(0), batch, mode=mode,
            )
            maps.append(trainer.throughput())
            torch.append(TorchLikeLeNet(spec, g, batch, mode).throughput())
        results[f"maps_{mode}"] = maps
        results[f"torch_{mode}"] = torch
    results["caffe"] = [CaffeLikeLeNet(spec, batch).throughput()]
    return results


# -- NMF (Fig. 13) ------------------------------------------------------------------
def nmf_throughput(
    spec: GPUSpec,
    gpu_counts=(1, 2, 3, 4),
    n: int = 16384,
    m: int = 4096,
    k: int = 128,
) -> dict[str, list[float]]:
    """NMF iterations/second: MAPS-Multi vs the NMF-mGPU baseline."""
    from repro.apps.nmf import MapsNMF
    from repro.baselines import NmfMgpu

    maps = []
    mgpu = []
    for g in gpu_counts:
        sched = Scheduler(SimNode(spec, g, functional=False))
        maps.append(MapsNMF(sched, (n, m), k=k).throughput())
        mgpu.append(NmfMgpu(spec, g, n, m, k).throughput())
    return {"maps": maps, "nmf_mgpu": mgpu}


# -- Table 4 ----------------------------------------------------------------------
def table4_single_gpu(spec: GPUSpec, size: int = PAPER_SIZE) -> dict[str, float]:
    """Single-GPU per-multiplication runtimes: native CUBLAS, CUBLAS over
    MAPS-Multi, CUBLAS-XT."""
    native = 2.0 * size**3 / calibration_for(spec).sgemm_flops
    over_maps = run_gemm_chain(spec, 1, size, chain=6)
    xt_time = run_xt_gemm(spec, 1, size, calls=1)
    return {"cublas": native, "cublas_over_maps": over_maps, "cublas_xt": xt_time}
