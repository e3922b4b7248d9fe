#!/usr/bin/env python3
"""Benchmark of the reproduction on both clocks: simulated time and host
wall-clock, end to end and per layer.

Usage (from the repository root)::

    python perf/run.py [--seed N] [--workload NAME ...] [--repeats R] [--trace]
    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every named workload (default: all four): one short
warm-up round that is discarded, then ``R`` rounds (default 3), and with
``--trace`` one traced round per workload. It prints every end-to-end
metric with its unit and quartiles, the per-layer table when traced, and
writes ``perf/out/results.json`` and ``perf/out/trace_<workload>.json``
(Perfetto). The second form measures one workload for about ``S``
seconds and prints, as its last line, one JSON object with the metrics
``BENCHMARK.json`` names: the end-to-end ones, or with ``--trace 1`` the
per-layer ones.

Every round runs in a fresh process, one at a time, with BLAS thread
pools pinned to one thread. On a shared host the speed of the machine
itself changes by up to 1.6x from one minute to the next, so every host
time is *calibrated*: a fixed interpreter loop is timed next to it, and
the time is scaled by ``CAL_REF_S`` over the loop's time, i.e. to the
speed of the reference host at which the loop takes ``CAL_REF_S``. The
timed section reports chunks of work (iterations, batches, leases,
ticks) as it goes; its host time is the median calibrated host time per
unit of work over the chunks of a run, times the work of one round.
``setup_s`` is the median calibrated set-up time. The exit code is
nonzero if any output is wrong or any simulated-time result differs
between rounds.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS thread pools before numpy is imported, here or in a round.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import metrics as M  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
#: A measured run (``--seconds``) must end within this many seconds.
HARD_LIMIT_S = 170.0
#: Fewest untraced rounds a measured run aggregates, when time allows.
MIN_ROUNDS = 2
#: Seconds ``workloads.calibrate()`` reads on the reference host: a 2-CPU
#: x86_64 VM with CPython 3.11.7, when nothing else runs. Host times are
#: reported at that speed. Never change it.
CAL_REF_S = 5.0e-4


class RoundError(RuntimeError):
    """A round process failed or timed out."""


def launch(workload: str, seed: int, *, trace: bool = False,
           smoke: bool = False, twin: bool = False,
           perfetto: pathlib.Path | None = None,
           timeout: float = HARD_LIMIT_S) -> dict:
    """Run one round in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--round",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    if twin:
        cmd.append("--twin")
    if perfetto is not None:
        cmd += ["--perfetto", str(perfetto)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RoundError(f"{workload}: round exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise RoundError(f"{workload}: round failed\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_seconds(rounds: list[dict]) -> float:
    """Calibrated host seconds of one round's timed section, at the median
    rate of the chunks of ``rounds`` (see module docstring)."""
    rates = [s / w * CAL_REF_S / c
             for r in rounds for s, w, c in r["chunks"] if w > 0]
    return statistics.median(rates) * rounds[0]["work"]


def calibrated_layers(r: dict) -> dict:
    """A traced round's per-layer metrics with host times calibrated like
    the chunks it ran (counts unchanged)."""
    scale = CAL_REF_S / statistics.median(c for _, _, c in r["chunks"])
    return {k: v * scale
            if k in M.BY_NAME and M.BY_NAME[k].unit in ("s", "us") else v
            for k, v in r["layers"].items()}


def sim_values(r: dict) -> dict:
    return {k: v for k, v in r["sim"].items() if k != "samples"}


def aggregate(name: str, untraced: list[dict], traced: list[dict]) -> dict:
    """One workload's metrics from its rounds (see module docstring)."""
    first = untraced[0]
    host_s = host_seconds(untraced)
    ops, commands = first["ops"], first["commands"]
    setups = [s * CAL_REF_S / c for r in untraced for s, c in r["setup_s"]]
    per_round = {
        "setup_s": setups,
        "ops_per_host_s": [ops / host_seconds([r]) for r in untraced],
        "host_us_per_sim_cmd": [host_seconds([r]) * 1e6 / commands
                                for r in untraced],
        "peak_rss_mib": [r["rss_mib"] for r in untraced],
    }
    value = {
        "setup_s": statistics.median(setups),
        "ops_per_host_s": ops / host_s,
        "host_us_per_sim_cmd": host_s * 1e6 / commands,
        "peak_rss_mib": statistics.median(per_round["peak_rss_mib"]),
    }
    attempted = sum(r["attempted"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    errors = [e for r in untraced + traced for e in r["errors"]]
    sim = sim_values(first)
    for r in untraced[1:] + traced:
        if sim_values(r) != sim or r["commands"] != commands:
            errors.append(
                f"{name}: simulated results differ between rounds "
                f"({'traced' if r['traced'] else 'untraced'} seed "
                f"{r['seed']})"
            )
    value.update(sim)
    value["failed_frac"] = failed / attempted
    out = {"metrics": {}, "samples": first["sim"].get("samples", {}),
           "op": first.get("op"), "ops": ops, "commands": commands,
           "rounds": len(untraced), "attempted": attempted,
           "failed": failed, "errors": errors}
    for m in M.END_TO_END:
        if M.applies(m, name):
            entry = {"value": value[m.name], "unit": m.unit}
            if m.name in per_round:
                entry["values"] = per_round[m.name]
            out["metrics"][m.name] = entry
    if traced:
        layers = [calibrated_layers(r) for r in traced]
        gaps = [abs(l["accounting_gap_s"]) for l in layers]
        traced_s = host_seconds(traced)
        if max(gaps) > 1e-6 * max(traced_s, 1.0):
            errors.append(f"{name}: layer self times + other miss the "
                          f"traced host time by {max(gaps):.3g} s")
        per_layer = {k: statistics.median(l[k] for l in layers)
                     for k in layers[0]}
        per_layer["trace.overhead_frac"] = traced_s / host_s - 1.0
        per_layer.update(sim)
        out["per_layer"] = {
            m.name: {"value": per_layer[m.name], "unit": m.unit}
            for m in M.PER_LAYER
            if m.name in per_layer and M.applies(m, name)
        }
        out["traced_host_s"] = traced_s
    return out


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, out: pathlib.Path = OUT) -> dict:
    """A measured run: rounds of ``name`` for about ``seconds``, one at a
    time (untraced, or untraced/traced pairs with ``trace``)."""
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    step = 0.0
    while True:
        t = time.monotonic()
        untraced.append(launch(
            name, seed, smoke=smoke, twin=not untraced,
            timeout=HARD_LIMIT_S - (t - start)))
        if trace:
            traced.append(launch(
                name, seed, trace=True, smoke=smoke,
                perfetto=out / f"trace_{name}.json",
                timeout=HARD_LIMIT_S - (time.monotonic() - start)))
        step = max(step, time.monotonic() - t)
        elapsed = time.monotonic() - start
        enough = elapsed + step > seconds
        if trace and enough:
            break
        if enough and (len(untraced) >= MIN_ROUNDS
                       or elapsed + step > HARD_LIMIT_S / 2):
            break
    return aggregate(name, untraced, traced)


def repeats(name: str, seed: int, count: int, trace: bool, smoke: bool,
            out: pathlib.Path) -> dict:
    """The runner's rounds: a discarded smoke warm-up, ``count`` untraced
    rounds, and one traced round with ``trace``."""
    launch(name, seed, smoke=True)
    untraced = [launch(name, seed, smoke=smoke, twin=i == 0)
                for i in range(count)]
    traced = []
    if trace:
        traced.append(launch(name, seed, trace=True, smoke=smoke,
                             perfetto=out / f"trace_{name}.json"))
    return aggregate(name, untraced, traced)


# -- printing ------------------------------------------------------------------
def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return f"{v:.6g}"
    return f"{v:.4e}"


def report(name: str, res: dict, seed: int) -> str:
    lines = [f"== {name} (seed {seed}, op = {res['op']}, {res['ops']} ops, "
             f"{res['commands']} simulated commands, {res['rounds']} "
             f"rounds) =="]
    rows = [("metric", "value", "unit", "q1..q3 over rounds", "note")]
    for m in M.END_TO_END:
        e = res["metrics"].get(m.name)
        if e is None:
            continue
        if "values" in e:
            q1, _, q3 = M.quartiles(e["values"])
            spread = f"{_fmt(q1)}..{_fmt(q3)}"
            note = ("unresolved: spread over bound"
                    if M.spread(e["values"]) > m.bound else "")
        else:
            spread, note = "exact", ""
        if m.name in res["samples"]:
            n, beyond = res["samples"][m.name]
            note = f"n={n}, {beyond} beyond"
        if m.name == "failed_frac":
            note = f"{res['failed']} of {res['attempted']}"
        rows.append((m.name, _fmt(e["value"]), m.unit, spread, note))
    lines += _table(rows)
    if name == "serving_poisson":
        lines.append("load: open loop, Poisson arrivals at a fixed 50,000 "
                     "req/s stamped in simulated time before the run; the "
                     "generator cannot run late, so there is no lag to "
                     "report")
    if "per_layer" in res:
        lines.append(f"-- per layer (traced run; every *_s is self time; "
                     f"traced host time {_fmt(res['traced_host_s'])} s) --")
        lines += _table([("metric", "value", "unit")] + [
            (k, _fmt(e["value"]), e["unit"])
            for k, e in res["per_layer"].items()
        ])
    lines += [f"ERROR {e}" for e in res["errors"]]
    return "\n".join(lines)


def _table(rows) -> list[str]:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in rows]


def result_line(res: dict, trace: bool) -> str:
    wanted = M.SHARED_PER_LAYER if trace else M.SHARED_END_TO_END
    source = res["per_layer"] if trace else res["metrics"]
    return json.dumps({
        "correct": res["failed"] == 0 and not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m.name: {"value": source[m.name]["value"],
                             "unit": m.unit} for m in wanted},
    })


# -- entry points --------------------------------------------------------------
def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=M.ALL, default=list(M.ALL))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="also run a traced round")
    p.add_argument("--seconds", type=float,
                   help="measure one workload for about this long and end "
                        "with a one-line JSON result")
    p.add_argument("--repeats", type=int, default=3,
                   help="untraced rounds per workload (without --seconds)")
    p.add_argument("--smoke", action="store_true",
                   help="small sizes, for tests")
    p.add_argument("--json", type=pathlib.Path, default=OUT / "results.json",
                   help="where the runner writes its results")
    p.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--twin", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--perfetto", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_one_round(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_round

    name = args.workload[0]
    res = run_round(name, args.seed, smoke=args.smoke, trace=bool(args.trace),
                    check=args.twin, perfetto=args.perfetto)
    res["op"] = WORKLOADS[name].op
    print(json.dumps(res))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.round:
        return run_one_round(args)
    trace = bool(args.trace)
    out = OUT if args.seconds is not None else args.json.parent
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.seconds is not None:
            if len(args.workload) != 1:
                print("error: --seconds measures exactly one workload",
                      file=sys.stderr)
                return 2
            name = args.workload[0]
            res = measure(name, args.seed, args.seconds, trace, args.smoke)
            print(report(name, res, args.seed))
            print(result_line(res, trace))
            return 0 if res["failed"] == 0 and not res["errors"] else 1
        results = {}
        for name in args.workload:
            results[name] = repeats(name, args.seed, args.repeats, trace,
                                    args.smoke, out)
            print(report(name, results[name], args.seed), flush=True)
    except RoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    doc = {"seed": args.seed, "repeats": args.repeats, "smoke": args.smoke,
           "traced": trace, "python": platform.python_version(),
           "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "workloads": results}
    args.json.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.json}")
    bad = [n for n, r in results.items() if r["failed"] or r["errors"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
