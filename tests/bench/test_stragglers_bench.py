"""Smoke tests of the straggler-mitigation benchmark at reduced scale."""

import json

import pytest

from repro.bench.reporting import write_json
from repro.bench.stragglers import (
    FACTORS,
    TARGET,
    WORKLOADS,
    measure_stragglers,
    stragglers_report,
)


@pytest.fixture(scope="module")
def results():
    # Reduced scale, but still large enough that kernels dominate and the
    # 4x acceptance bound (asserted inside measure_stragglers, along with
    # bit-identity and determinism) is meaningful.
    return measure_stragglers(
        gol_size=2048, gol_iters=8, sgemm_size=1024, sgemm_iters=6
    )


class TestMeasureStragglers:
    def test_all_workloads_and_scenarios_measured(self, results):
        assert set(results["workloads"]) == set(WORKLOADS)
        scenarios = {f"compute_{f:g}x" for f in FACTORS} | {"transient_4x"}
        for entry in results["workloads"].values():
            assert scenarios <= set(entry)

    def test_mitigation_recovers_the_4x_scenario(self, results):
        for name, entry in results["workloads"].items():
            r = entry["compute_4x"]
            off = r["unmitigated"]["overhead"]
            on = r["mitigated"]["overhead"]
            assert off > TARGET, (name, off)
            assert on <= TARGET, (name, on)
            assert on < off

    def test_mitigation_never_hurts_persistent_scenarios(self, results):
        for entry in results["workloads"].values():
            for f in FACTORS:
                r = entry[f"compute_{f:g}x"]
                assert (r["mitigated"]["sim_time"]
                        <= r["unmitigated"]["sim_time"] * 1.02)

    def test_transient_cost_is_bounded(self, results):
        # A straggler that heals shortly after the feedback loop rebalances
        # costs one extra reshuffle (in and back out) — mitigation may
        # slightly trail the unmitigated run here, but stays bounded.
        for entry in results["workloads"].values():
            assert entry["transient_4x"]["mitigated"]["overhead"] <= 1.25

    def test_bit_identity_flag_recorded(self, results):
        assert results["bit_identical"] is True

    def test_report_and_json(self, results, tmp_path):
        text = stragglers_report(results)
        for name in WORKLOADS:
            assert name in text
        assert "compute_4x" in text
        out = tmp_path / "BENCH_stragglers.json"
        write_json(results, out)
        data = json.loads(out.read_text())
        assert data["workloads"].keys() == set(WORKLOADS)
        assert data["target"] == TARGET
