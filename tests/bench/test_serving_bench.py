"""Smoke tests of the serving benchmark (determinism and the
composition bit-identity checks run *inside* ``measure_serving`` as
assertions)."""

import json

import pytest

from repro.bench.reporting import write_json
from repro.bench.serving import (
    LOAD_POINTS,
    calibrate_capacity,
    measure_serving,
    serving_report,
)
from repro.serving import ServingConfig


@pytest.fixture(scope="module")
def results():
    # Small trace: the shape of the result tree, not the statistics.
    return measure_serving(n=150, p99_gate=50.0)


class TestCalibration:
    def test_capacity_from_service_times(self):
        cfg = ServingConfig()
        calib = calibrate_capacity(cfg)
        assert set(calib["service_times"]) == {"lenet", "sgemm"}
        assert all(t > 0 for t in calib["service_times"].values())
        assert calib["capacity_rps"] == pytest.approx(
            calib["max_replicas"] * cfg.max_batch / calib["mean_service"]
        )


class TestMeasureServing:
    def test_load_sweep_shape(self, results):
        points = results["load_points"]
        assert [p["load_x"] for p in points] == list(LOAD_POINTS)
        for p in points:
            assert p["pattern"] == "poisson"
            assert 0.0 < p["p50"] <= p["p95"] <= p["p99"]
            assert p["n_requests"] == 150
            assert p["goodput"] >= 0.0
            assert 0.0 <= p["slo_attainment"] <= 1.0

    def test_latency_grows_with_load(self, results):
        points = results["load_points"]
        assert points[-1]["p99"] > points[0]["p99"]

    def test_bursty_point(self, results):
        b = results["bursty_1x"]
        assert b["pattern"] == "bursty"
        assert b["p99"] > 0.0

    def test_determinism_recorded(self, results):
        det = results["determinism"]
        assert det["latencies_identical"] and det["results_identical"]

    def test_composition_bit_identical(self, results):
        comp = results["composition"]
        assert set(comp) == {"pressure_0.4x", "straggler_dev1_2x"}
        for p in comp.values():
            assert p["results_match_plain"]

    def test_p99_gate_recorded(self, results):
        assert results["p99_gate"]["factor"] == 50.0

    def test_gate_failure_raises(self):
        with pytest.raises(AssertionError, match="p99 latency"):
            measure_serving(n=150, p99_gate=1e-6)


class TestReporting:
    def test_report_renders(self, results):
        text = serving_report(results)
        assert "Serving under load" in text
        assert "p99" in text
        assert "bit-identical" in text

    def test_json_round_trip(self, results, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        write_json(results, path)
        again = json.loads(path.read_text())
        assert again["load_points"] == results["load_points"]
        assert again["spec"] == results["spec"]
