"""Ablation: the §8 cluster extension — weak and strong scaling across
nodes, and the latency sensitivity the paper's future-work section
predicts ("communication latency is orders of magnitude higher than
within a multi-GPU node").
"""

import pytest

from conftest import fmt_table, record_result
from repro.cluster import ClusterMaster, NetworkCalibration
from repro.hardware import GTX_780
from repro.kernels.game_of_life import make_gol_kernel

KERNEL = lambda: make_gol_kernel("maps_ilp")  # noqa: E731


def tick_time(cs: ClusterMaster, ticks: int = 5) -> float:
    cs.run(2)  # warm-up
    t0 = cs.time
    cs.run(ticks)
    return (cs.time - t0) / ticks


@pytest.mark.benchmark(group="ablation")
def test_ablation_cluster_scaling(benchmark):
    def collect():
        weak = {}
        strong = {}
        for nodes in (1, 2, 4):
            weak[nodes] = tick_time(
                ClusterMaster(
                    GTX_780, nodes, 4, (4096 * nodes, 4096), KERNEL(),
                    functional=False,
                )
            )
            strong[nodes] = tick_time(
                ClusterMaster(
                    GTX_780, nodes, 4, (8192, 8192), KERNEL(),
                    functional=False,
                )
            )
        lat = {}
        for label, calib in (
            ("IB-class (20 us)", NetworkCalibration()),
            ("10x latency", NetworkCalibration(latency=200e-6)),
            ("100x latency", NetworkCalibration(latency=2e-3)),
        ):
            lat[label] = tick_time(
                ClusterMaster(
                    GTX_780, 4, 4, (8192, 8192), KERNEL(),
                    functional=False, network=calib,
                )
            )
        return weak, strong, lat

    weak, strong, lat = benchmark.pedantic(collect, rounds=1, iterations=1)

    rows = (
        [
            [f"weak, {n} node(s) x 4 GPUs", f"{t * 1e3:.3f} ms/tick", ""]
            for n, t in weak.items()
        ]
        + [
            [
                f"strong 8K^2, {n} node(s)",
                f"{t * 1e3:.3f} ms/tick",
                f"{strong[1] / t:.2f}x",
            ]
            for n, t in strong.items()
        ]
        + [[f"latency: {k}", f"{t * 1e3:.3f} ms/tick", ""] for k, t in lat.items()]
    )
    record_result(
        "ablation_cluster",
        fmt_table(
            "Ablation (§8 extension): Game of Life across multi-GPU nodes",
            ["configuration", "per tick", "speedup"],
            rows,
        ),
    )

    # Weak scaling: near-constant tick time (small growth from exchange).
    assert weak[4] < 1.35 * weak[1]
    # Strong scaling helps but sublinearly (inter-node exchange cost).
    assert strong[4] < strong[1]
    assert strong[1] / strong[4] < 4.0
    # Tick time grows with network latency, roughly by the added latency.
    assert lat["100x latency"] > lat["IB-class (20 us)"] + 1.5e-3
