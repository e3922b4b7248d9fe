"""Multi-GPU non-negative matrix factorization (§6.2, Figs. 12-13).

Factorizes V ~= W H with the multiplicative update rule, partitioned per
Fig. 12: V and W in independent row stripes, only the small H replicated;
the framework infers the two per-iteration exchanges (the Acc
reduce-scatter and the H all-gather). Compares against the NMF-mGPU
baseline at paper scale.

Run: ``python examples/nmf.py``
"""

import numpy as np

from repro.apps.nmf import MapsNMF, frobenius_error, nmf_init
from repro.baselines import NmfMgpu
from repro.core import Scheduler
from repro.hardware import GTX_980
from repro.sim import SimNode


def functional_demo() -> None:
    n, m, k = 256, 128, 16
    v, _, _ = nmf_init(n, m, k, seed=11)

    nmf = MapsNMF(Scheduler(SimNode(GTX_980, 4, functional=True)), v, k=k, seed=11)
    print(f"factorizing V ({n}x{m}) with k={k} on 4 GPUs:")
    err = frobenius_error(v, nmf.W.host, nmf.H.host)
    print(f"  initial ||V - WH|| = {err:.3f}")
    prev = err
    for round_ in range(4):
        nmf.factorize(5)
        err = frobenius_error(v, nmf.W.host, nmf.H.host)
        print(f"  after {5 * (round_ + 1):2d} iterations: {err:.3f}")
        assert err <= prev + 1e-3, "multiplicative updates must not diverge"
        prev = err
    assert (nmf.W.host >= 0).all() and (nmf.H.host >= 0).all()
    print("  W, H stayed non-negative")


def performance_demo() -> None:
    print("\n16K x 4K, k=128 on GTX 980 (Fig. 13), iterations/s:")
    print(f"{'GPUs':>5s} {'MAPS-Multi':>12s} {'NMF-mGPU':>10s}")
    base_maps = base_mgpu = None
    for g in (1, 2, 3, 4):
        sched = Scheduler(SimNode(GTX_980, g, functional=False))
        maps = MapsNMF(sched, (16384, 4096), k=128).throughput()
        mgpu = NmfMgpu(GTX_980, g).throughput()
        base_maps = base_maps or maps
        base_mgpu = base_mgpu or mgpu
        print(
            f"{g:5d} {maps:8.1f} it/s {mgpu:7.1f} it/s"
            f"   ({maps / base_maps:.2f}x vs {mgpu / base_mgpu:.2f}x)"
        )
    print(
        "MAPS exchanges H/Acc peer-to-peer; NMF-mGPU stages its MPI\n"
        "exchanges through the host, and its Kepler-tuned kernels trail\n"
        "on Maxwell."
    )


if __name__ == "__main__":
    functional_demo()
    performance_demo()
