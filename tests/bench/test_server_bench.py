"""Smoke tests of the job-server benchmark (bit-identity, the 1.2x
preemption-overhead gate and the determinism check run *inside*
``measure_server`` as assertions)."""

import json

import pytest

from repro.bench.reporting import write_json
from repro.bench.server import (
    DEMO,
    LOADS,
    OVERHEAD_GATE,
    measure_server,
    server_report,
)


@pytest.fixture(scope="module")
def results():
    return measure_server()


class TestMeasureServer:
    def test_contended_scenario_shape(self, results):
        c = results["contended"]
        assert set(c["jobs"]) == {name for _, name, _ in DEMO}
        for r in c["jobs"].values():
            assert r["exec_time"] > 0
            assert r["solo_time"] > 0
            assert r["overhead"] == r["exec_time"] / r["solo_time"]
            assert r["queue_wait"] >= 0
        assert {"p50", "p95"} <= set(c["queue_wait"])

    def test_contention_preempts_someone(self, results):
        c = results["contended"]
        assert sum(r["preemptions"] for r in c["jobs"].values()) >= 1

    def test_overhead_gate_holds(self, results):
        c = results["contended"]
        assert c["max_overhead"] <= OVERHEAD_GATE
        assert results["overhead_gate"] == OVERHEAD_GATE

    def test_fairness_in_range(self, results):
        assert 0.0 < results["contended"]["fairness"] <= 1.0

    def test_load_sweep(self, results):
        loads = results["loads"]
        assert [r["load"] for r in loads] == list(LOADS)
        for r in loads:
            assert r["done"] == r["jobs"]
            assert 0.0 < r["fairness"] <= 1.0
        # Heavier offered load queues longer.
        assert (
            loads[-1]["queue_wait"]["p95"] >= loads[0]["queue_wait"]["p95"]
        )

    def test_report_and_json(self, results, tmp_path):
        text = server_report(results)
        for _, name, _ in DEMO:
            assert name in text
        assert "fairness" in text
        out = tmp_path / "BENCH_server.json"
        write_json(results, out)
        data = json.loads(out.read_text())
        assert data["contended"]["max_overhead"] <= OVERHEAD_GATE
        assert len(data["loads"]) == len(LOADS)
