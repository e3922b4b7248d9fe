"""Smoke tests of the benchmark: every workload at ``--smoke`` sizes, the
printed metrics, the correctness checks, the one-line result of a measured
run, and the compare script. ``python -m pytest perf/tests -q``."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import compare
import metrics as M

PERF = pathlib.Path(__file__).resolve().parent.parent
ROOT = PERF.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The runner over all four workloads, traced, at smoke sizes."""
    out = tmp_path_factory.mktemp("smoke")
    proc = run("perf/run.py", "--smoke", "--repeats", "1", "--trace",
               "--seed", "3", "--json", str(out / "results.json"))
    return proc, out


def test_runner_prints_every_metric_and_passes_checks(smoke):
    proc, out = smoke
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "results.json").read_text())
    assert set(doc["workloads"]) == set(M.ALL)
    for name, res in doc["workloads"].items():
        assert f"== {name} " in proc.stdout
        assert res["failed"] == 0 and res["errors"] == []
        want = {m.name for m in M.END_TO_END if M.applies(m, name)}
        assert set(res["metrics"]) == want
        for m in M.END_TO_END:
            if M.applies(m, name):
                assert any(line.split()[:1] == [m.name]
                           and m.unit in line.split()
                           for line in proc.stdout.splitlines()), m.name
        assert {m.name for m in M.SHARED_PER_LAYER} <= set(res["per_layer"])
        trace = json.loads((out / f"trace_{name}.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and trace["otherData"]["workload"] == name


def test_traced_run_accounts_for_host_time(smoke):
    _, out = smoke
    doc = json.loads((out / "results.json").read_text())
    for res in doc["workloads"].values():
        layer = res["per_layer"]
        assert layer["other_s"]["value"] >= 0
        assert layer["scheduler.self_s"]["value"] > 0
        assert layer["engine.commands"]["value"] == res["commands"]


@pytest.mark.parametrize("trace", [0, 1])
def test_measured_run_ends_with_the_result_line(trace):
    proc = run("perf/run.py", "--workload", "jobserver_openloop",
               "--seed", "5", "--seconds", "0", "--trace", str(trace),
               "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = M.SHARED_PER_LAYER if trace else M.SHARED_END_TO_END
    assert list(line["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        assert line["metrics"][m.name]["unit"] == m.unit


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(M.ALL)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in M.SHARED_END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.SHARED_PER_LAYER
    ]
    setup = max(spec["end_to_end"], key=lambda m: m["bound"])
    assert setup["name"] == "setup_s"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("perf/run.py", "--workload", "node_eager", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_checks_catch_a_wrong_answer():
    from workloads import ServingPoisson

    wl = ServingPoisson(seed=2, smoke=True)
    st = wl.setup()
    wl.run(st, lambda done: None)
    assert wl.check(st) == (0, [])
    st.report.results[0] = st.report.results[0] + 1
    failed, errors = wl.check(st)
    assert failed == 1 and "differ from numpy" in errors[0]


def test_tracer_restores_every_class():
    from tracer import Tracer, layer_table

    before = {(cls, m): vars(cls)[m]
              for _, cls, methods in layer_table() for m in methods}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(cls)[m] is not f for (cls, m), f in before.items())
    finally:
        tracer.uninstall()
    assert all(vars(cls)[m] is f for (cls, m), f in before.items())


def _entry(value, values=None):
    e = {"value": value}
    if values is not None:
        e["values"] = values
    return e


def test_compare_verdicts():
    v = compare.verdict
    assert v(_entry(1.0), _entry(1.0), "lower", 0.0) == "unchanged"
    assert v(_entry(1.0), _entry(1.1), "lower", 0.0) == "worse"
    assert v(_entry(100, [99, 100, 101]), _entry(104, [103, 104, 105]),
             "lower", 0.1) == "unchanged"
    assert v(_entry(100, [99, 100, 101]), _entry(120, [119, 120, 121]),
             "lower", 0.1) == "worse"
    assert v(_entry(100, [99, 100, 101]), _entry(80, [79, 80, 81]),
             "higher", 0.1) == "worse"
    assert v(_entry(100, [60, 100, 140]), _entry(105, [70, 105, 140]),
             "lower", 0.1) == "unresolved"
    assert v(_entry(100, [60, 100, 140]), _entry(30, [20, 30, 40]),
             "lower", 0.1) == "better"


def test_compare_script(smoke, tmp_path):
    _, out = smoke
    a = out / "results.json"
    proc = run("perf/compare.py", str(a), str(a))
    assert proc.returncode == 0, proc.stdout
    rows = proc.stdout.splitlines()[1:]
    assert rows and all(r.split()[-1] in ("unchanged", "unresolved")
                        for r in rows)
    doc = json.loads(a.read_text())
    doc["workloads"]["node_eager"]["metrics"]["sim_s"]["value"] *= 2
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    proc = run("perf/compare.py", str(a), str(b))
    assert proc.returncode == 1
    assert any(r.split()[:2] == ["node_eager", "sim_s"]
               and r.split()[-1] == "worse"
               for r in proc.stdout.splitlines())
