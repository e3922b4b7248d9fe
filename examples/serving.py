"""Serving under load: open-loop traffic, dynamic batching, autoscaling.

A 4-GPU node serves two models — LeNet inference and a chained-SGEMM
microservice — behind a dynamic batcher (DESIGN.md §14). A seeded
open-loop Poisson trace replays against the node at half capacity and at
2x overload; a bursty trace shows the tail cost of burstiness at equal
offered load. The replica autoscaler grows the replica set as backlog
builds and shrinks it when the queue drains.

Self-verification:

* batched serving is **bit-identical** to serving every request alone
  (the fixed padded engine shape makes results batch-independent);
* replaying the same trace twice is bit-identical, latencies included;
* every request's LeNet answer matches the plain-numpy reference
  forward pass.

Run: ``python examples/serving.py``
"""

import dataclasses

import numpy as np

from repro.apps.lenet import LeNetParams, reference_forward
from repro.bench.serving import calibrate_capacity
from repro.serving import (
    ServingConfig,
    ServingNode,
    bursty_trace,
    poisson_trace,
)
from repro.utils.units import fmt_time

N = 400
SEED = 42


def pctl(rep, q):
    return float(np.percentile(rep.latencies, q))


def show(label, rep):
    print(
        f"  {label:<14s} p50 {fmt_time(pctl(rep, 50)):>9s}   "
        f"p99 {fmt_time(pctl(rep, 99)):>9s}   "
        f"goodput {rep.goodput:8.0f}/s   "
        f"mean batch {rep.mean_batch:4.2f}   "
        f"replicas <= {rep.peak_replicas}"
    )


def main():
    cfg = ServingConfig()
    cap = calibrate_capacity(cfg)["capacity_rps"]
    print(f"calibrated capacity: {cap:.0f} req/s "
          f"({cfg.num_gpus} replicas x batch {cfg.max_batch})")

    print(f"\nopen-loop load sweep ({N} requests per trace):")
    half = ServingNode(cfg).run(poisson_trace(N, rate=0.5 * cap, seed=SEED))
    show("poisson 0.5x", half)
    over = ServingNode(cfg).run(poisson_trace(N, rate=2.0 * cap, seed=SEED))
    show("poisson 2x", over)
    burst = ServingNode(cfg).run(bursty_trace(N, rate=0.5 * cap, seed=SEED))
    show("bursty 0.5x", burst)
    assert pctl(over, 99) > pctl(half, 99), "overload should stretch p99"
    assert over.peak_replicas >= half.peak_replicas

    # Batched == sequential, bit for bit.
    trace = poisson_trace(80, rate=0.5 * cap, seed=SEED)
    batched = ServingNode(cfg).run(trace)
    solo = ServingNode(dataclasses.replace(cfg, batch_limit=1)).run(trace)
    assert batched.mean_batch > 1.0
    for r in trace.requests:
        np.testing.assert_array_equal(
            batched.results[r.rid], solo.results[r.rid]
        )
    print("\nbatched == sequential: bit-identical "
          f"(mean batch {batched.mean_batch:.2f} vs 1.00)")

    # Replay determinism, latencies included.
    again = ServingNode(cfg).run(trace)
    assert again.results_hash() == batched.results_hash()
    assert np.array_equal(again.latencies, batched.latencies)
    print("replayed trace: results and latencies bit-identical")

    # Served LeNet answers match the plain-numpy reference network.
    params = LeNetParams.initialize(cfg.model_seed)
    checked = 0
    for r in trace.requests:
        if r.kind != "lenet":
            continue
        img = (
            np.random.default_rng(r.seed)
            .standard_normal((1, 28, 28))
            .astype(np.float32)
        )
        pad = np.zeros((cfg.max_batch, 1, 28, 28), np.float32)
        pad[0] = img
        ref = reference_forward(params, pad).logits[0]
        np.testing.assert_array_equal(batched.results[r.rid], ref)
        checked += 1
    print(f"LeNet answers match the numpy reference ({checked} checked)")
    print("\nOK: serving example verified")


if __name__ == "__main__":
    main()
