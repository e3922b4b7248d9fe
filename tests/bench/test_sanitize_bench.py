"""Smoke tests of the sanitizer-overhead benchmark at reduced scale."""

import json

from repro.bench.reporting import write_json
from repro.bench.sanitize import (
    WORKLOADS,
    measure_sanitize,
    sanitize_report,
)


def small_results():
    # Tiny boards, few iterations: exercises the sanitized/plain
    # comparison (including the checksum-equality assert inside
    # measure_sanitize) without full benchmark cost.
    return measure_sanitize(size=64, iters=2, repeats=1)


class TestMeasureSanitize:
    def test_all_workloads_measured_and_consistent(self):
        results = small_results()
        assert set(results["workloads"]) == set(WORKLOADS)
        for r in results["workloads"].values():
            assert r["plain"]["wall_s"] > 0
            assert r["sanitized"]["wall_s"] > 0
            assert r["slowdown"] > 0
            # measure_sanitize itself asserts this; re-check the recorded
            # values for the JSON consumer's benefit.
            assert r["sanitized"]["checksum"] == r["plain"]["checksum"]

    def test_report_and_json(self, tmp_path):
        results = small_results()
        text = sanitize_report(results)
        for name in WORKLOADS:
            assert name in text
        out = tmp_path / "BENCH_sanitize.json"
        write_json(results, out)
        assert json.loads(out.read_text())["workloads"].keys() == set(WORKLOADS)
