"""Smoke tests of the cluster benchmark at reduced scale."""

import json

import pytest

from repro.bench.cluster import (
    MAX_OVERHEAD,
    NODE_COUNTS,
    cluster_report,
    measure_cluster,
)
from repro.bench.reporting import write_json


@pytest.fixture(scope="module")
def results():
    # Smaller scaling board; the recovery matrix keeps its real geometry
    # (the fault times in the scenarios are tuned to it), and all its
    # asserts — bit-identity, determinism, the 2x gate — run inside
    # measure_cluster.
    # (512^2 is below the crossover where ghost-exchange latency eats the
    # per-node compute win, so keep 1024^2 as the smallest honest scale.)
    return measure_cluster(
        scaling_rows=1024, scaling_cols=1024, scaling_ticks=4
    )


class TestMeasureCluster:
    def test_scaling_curve_covers_all_node_counts(self, results):
        nodes = results["scaling"]["nodes"]
        assert set(nodes) == set(NODE_COUNTS)
        assert nodes[1]["speedup"] == 1.0
        for n in NODE_COUNTS:
            assert nodes[n]["sim_time"] > 0

    def test_multi_node_beats_single_node(self, results):
        nodes = results["scaling"]["nodes"]
        assert nodes[4]["sim_time"] < nodes[1]["sim_time"]

    def test_recovery_scenarios_all_bit_identical(self, results):
        rec = results["recovery"]
        for name in (
            "crash_1", "crash_2_spaced", "partition_minority",
            "slow_link_25x",
        ):
            assert rec[name]["bit_identical"] is True
        assert rec["deterministic_replay"] is True

    def test_single_loss_gate_and_counters(self, results):
        rec = results["recovery"]
        assert rec["crash_1"]["overhead"] <= MAX_OVERHEAD
        assert rec["crash_1"]["recoveries"] == 1
        assert rec["crash_1"]["nodes_left"] == 3
        assert rec["crash_2_spaced"]["nodes_lost"] == 2
        assert rec["slow_link_25x"]["recoveries"] == 0

    def test_elastic_scenarios(self, results):
        el = results["elastic"]
        for name in ("crash_repair_rejoin", "crash_repair_reslab"):
            assert el[name]["bit_identical"] is True
            assert el[name]["nodes_readmitted"] == 1
            assert "re-admit" in el[name]["membership"]
            assert el[name]["replication_deficit"] == 0
            assert el[name]["overhead"] <= MAX_OVERHEAD
        assert el["crash_repair_rejoin"]["replicas_shipped"] > 0
        assert el["crash_repair_reslab"]["nodes_left"] == 4
        assert el["deterministic_replay"] is True

    def test_armed_idle_plan_is_exactly_free(self, results):
        el, rec = results["elastic"], results["recovery"]
        assert el["armed_idle"]["zero_overhead"] is True
        assert el["armed_idle"]["sim_time"] == rec["crash_1"]["sim_time"]
        assert el["armed_idle"]["nodes_readmitted"] == 0

    def test_checkpointing_insurance_is_priced(self, results):
        rec = results["recovery"]
        assert rec["baseline"]["checkpoints"] > 0
        assert rec["baseline"]["insurance_overhead"] >= 1.0
        assert rec["no_faults_no_checkpoints"]["checkpoints"] == 0

    def test_impossible_gate_fails(self):
        with pytest.raises(AssertionError, match="acceptance gate"):
            measure_cluster(
                scaling_rows=512, scaling_cols=512, scaling_ticks=2,
                max_overhead=1.0,
            )

    def test_report_and_json(self, results, tmp_path):
        text = cluster_report(results)
        assert "Cluster scaling" in text
        assert "crash_2_spaced" in text
        assert "bit-identical" in text
        assert "Elastic membership" in text
        assert "crash_repair_rejoin" in text
        assert "armed_idle" in text
        out = tmp_path / "BENCH_cluster.json"
        write_json(results, out)
        data = json.loads(out.read_text())
        assert set(data["scaling"]["nodes"]) == {
            str(n) for n in NODE_COUNTS
        }
        assert data["max_overhead"] == MAX_OVERHEAD
