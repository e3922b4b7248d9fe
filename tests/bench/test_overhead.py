"""Smoke tests of the host-path overhead benchmark at reduced scale."""

import json

from repro.bench.overhead import (
    WORKLOADS,
    measure_overhead,
    overhead_report,
)
from repro.bench.reporting import write_json


def small_results():
    # Tiny problem, few iterations: exercises the full cached/uncached
    # comparison (including the sim-time and command-count equality
    # asserts inside measure_overhead) without paper-scale cost.
    return measure_overhead(size=128, iters=5, repeats=1)


class TestMeasureOverhead:
    def test_all_workloads_measured_and_consistent(self):
        results = small_results()
        assert set(results["workloads"]) == set(WORKLOADS)
        for r in results["workloads"].values():
            assert r["uncached"]["submit_s"] > 0
            assert r["cached"]["submit_s"] > 0
            assert r["submit_speedup"] > 0
            # measure_overhead itself asserts these are equal; re-check
            # the recorded values for the JSON consumer's benefit.
            assert r["cached"]["sim_time"] == r["uncached"]["sim_time"]
            assert r["cached"]["commands"] == r["uncached"]["commands"]
            assert r["cached"]["plan_cache"]["hits"] > 0
            assert r["uncached"]["plan_cache"]["hits"] == 0

    def test_graph_replay_bit_identical_to_twin(self):
        results = small_results()
        for r in results["workloads"].values():
            g = r["graph"]
            # measure_overhead asserts these too; re-check the recorded
            # values for the JSON consumer's benefit.
            assert g["sim_time"] == r["twin"]["sim_time"]
            assert g["commands"] == r["twin"]["commands"]
            assert g["graph"]["replayable"], g["graph"]["reason"]
            assert g["graph"]["fast_launches"] == g["graph"]["launches"] >= 1

    def test_graph_hits_trajectory(self):
        results = small_results()
        for name, r in results["workloads"].items():
            # Only the graph run dispatches through the macro-command
            # path; every replayed lap counts one hit per recorded call.
            assert r["uncached"]["plan_cache"]["graph_hits"] == 0
            assert r["cached"]["plan_cache"]["graph_hits"] == 0
            assert r["twin"]["plan_cache"]["graph_hits"] == 0
            g = r["graph"]
            laps = g["graph"]["replayed_laps"]
            assert laps >= 1
            calls = 1 if name == "histogram" else 2
            assert g["plan_cache"]["graph_hits"] == laps * calls
            assert r["replay_speedup"] > 0

    def test_graph_floor_enforced(self):
        import pytest

        with pytest.raises(AssertionError, match="under the floor"):
            measure_overhead(size=128, iters=5, repeats=1, graph_floor=1e9)

    def test_report_and_json(self, tmp_path):
        results = small_results()
        text = overhead_report(results)
        for name in WORKLOADS:
            assert name in text
        out = tmp_path / "BENCH_overhead.json"
        write_json(results, out)
        assert json.loads(out.read_text())["workloads"].keys() == set(WORKLOADS)
