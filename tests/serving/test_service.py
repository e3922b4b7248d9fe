"""End-to-end serving: bit-identity, determinism, autoscaling,
composition with pressure and stragglers."""

import dataclasses

import numpy as np
import pytest

from repro.core.graph import IterationGraph
from repro.core.location_monitor import _READ_FLOOR
from repro.hardware import HOST
from repro.serving import (
    ReplicaAutoscaler,
    ServingConfig,
    ServingNode,
    bursty_trace,
    poisson_trace,
)
from repro.serving.service import _Replica
from repro.serving.trace import Request
from repro.sim import SimNode
from repro.sim.faults import FaultPlan, Straggler

CFG = ServingConfig()


class TestBitIdentity:
    def test_batched_equals_sequential(self):
        # The load-bearing invariant: the batcher changes latency, never
        # answers. Sequential = batch_limit 1 at the same fixed engine
        # shape.
        tr = poisson_trace(60, rate=3000.0, seed=3)
        batched = ServingNode(CFG).run(tr)
        seq = ServingNode(dataclasses.replace(CFG, batch_limit=1)).run(tr)
        assert batched.mean_batch > 1.0  # coalescing actually happened
        assert seq.mean_batch == 1.0
        for r in tr.requests:
            np.testing.assert_array_equal(
                batched.results[r.rid], seq.results[r.rid]
            )
        assert batched.results_hash() == seq.results_hash()

    def test_every_request_is_answered_once(self):
        tr = poisson_trace(80, rate=5000.0, seed=4)
        rep = ServingNode(CFG).run(tr)
        assert sorted(rep.results) == [r.rid for r in tr.requests]
        assert len(rep.served) == len(tr)
        assert all(s.latency > 0.0 for s in rep.served)


class TestDeterminism:
    def test_run_twice_is_bit_identical(self):
        tr = poisson_trace(100, rate=8000.0, seed=9)
        a, b = ServingNode(CFG).run(tr), ServingNode(CFG).run(tr)
        assert a.results_hash() == b.results_hash()
        np.testing.assert_array_equal(a.latencies, b.latencies)
        assert [
            (s.rid, s.dispatched, s.completed, s.device)
            for s in a.served
        ] == [
            (s.rid, s.dispatched, s.completed, s.device) for s in b.served
        ]
        assert [(e.time, e.action) for e in a.scaling_events] == [
            (e.time, e.action) for e in b.scaling_events
        ]


class TestAutoscaling:
    def test_overload_grows_the_replica_set(self):
        tr = poisson_trace(300, rate=40000.0, seed=11)
        rep = ServingNode(CFG).run(tr)
        assert rep.peak_replicas > 1
        assert any(e.action == "up" for e in rep.scaling_events)

    def test_light_load_stays_at_the_floor(self):
        tr = poisson_trace(40, rate=200.0, seed=2)
        rep = ServingNode(CFG).run(tr)
        assert rep.peak_replicas == ReplicaAutoscaler.min_replicas
        assert rep.scaling_events == []

    def test_scaling_does_not_change_results(self):
        tr = poisson_trace(150, rate=30000.0, seed=6)
        scaled = ServingNode(CFG).run(tr)
        sn = ServingNode(CFG)
        sn.autoscaler.min_replicas = 4
        sn.autoscaler.up_backlog = 1e9
        sn.autoscaler.cooldown = 1e9
        pinned = sn.run(tr)
        assert scaled.results_hash() == pinned.results_hash()


class TestOpenLoopScale:
    def test_five_thousand_arrivals_complete(self):
        # The serving-scale smoke: thousands of open-loop arrivals step
        # through batcher, autoscaler, and replicas with bounded memory
        # (trace/handle logs cleared periodically) and every request
        # answered.
        tr = poisson_trace(5000, rate=20000.0, seed=1)
        rep = ServingNode(CFG).run(tr)
        assert rep.n_requests == 5000
        assert sorted(rep.results) == list(range(5000))
        assert rep.makespan >= tr.duration
        assert rep.graph_launches > 0  # steady state used graphs

    def test_bursty_tail_is_heavier_at_equal_load(self):
        rate = 20000.0
        p = ServingNode(CFG).run(poisson_trace(400, rate=rate, seed=5))
        b = ServingNode(CFG).run(bursty_trace(400, rate=rate, seed=5))
        p99 = lambda r: float(np.percentile(r.latencies, 99))  # noqa: E731
        assert p99(b) > p99(p)


class TestComposition:
    def test_memory_pressure_moves_latency_not_bits(self):
        tr = poisson_trace(60, rate=5000.0, seed=8)
        plain = ServingNode(CFG).run(tr)
        squeezed = ServingNode(
            dataclasses.replace(CFG, capacity_frac=0.4)
        ).run(tr)
        assert squeezed.results_hash() == plain.results_hash()

    def test_straggler_moves_latency_not_bits(self):
        tr = poisson_trace(120, rate=30000.0, seed=8)
        plain = ServingNode(CFG).run(tr)
        fp = FaultPlan(
            stragglers=(Straggler(device=1, compute_factor=4.0),)
        )
        slow = ServingNode(dataclasses.replace(CFG, faults=fp)).run(tr)
        assert slow.results_hash() == plain.results_hash()
        assert slow.makespan > plain.makespan  # the slowdown is real


class TestBoundedState:
    def test_replicas_hold_streams_on_their_devices_only(self):
        """Four one-GPU replicas hold three device streams and a host
        stream each."""
        sn = ServingNode(CFG)
        sn.autoscaler.min_replicas = 4
        sn.run(poisson_trace(50, rate=40000.0, seed=1))
        assert len(sn.node.streams) == 16

    def test_host_read_list_stays_bounded(self):
        """Every serve re-uploads its input datum; the host reads of one
        serve are finished by the next upload and must not pile up."""
        node = SimNode(CFG.spec, CFG.num_gpus, functional=True)
        rep = _Replica(node, 0, CFG)
        lenet, sgemm = rep.engines["lenet"], rep.engines["sgemm"]
        for eng, x in ((lenet, lenet.forward.x0), (sgemm, sgemm._x)):
            for i in range(200):
                eng.serve(
                    [Request(rid=i, kind=eng.kind, arrival=0.0, seed=i)]
                )
            reads = rep.sched.monitor._st(x).pending_reads.get(HOST, [])
            assert len(reads) <= 1

    def test_read_lists_stay_bounded(self):
        """The weight matrix is read by every pair and never written; its
        completed reads are compacted, so no read list of any datum grows
        with the number of serves."""
        node = SimNode(CFG.spec, CFG.num_gpus, functional=True)
        rep = _Replica(node, 0, CFG)
        sgemm = rep.engines["sgemm"]
        for i in range(2000):
            sgemm.serve([Request(rid=i, kind="sgemm", arrival=0.0, seed=i)])
        longest = max(
            len(evs)
            for st in rep.sched.monitor.states().values()
            for evs in st.pending_reads.values()
        )
        assert longest <= 2 * _READ_FLOOR
        # The first serve runs eagerly and the second is captured; every
        # later serve is one launch, and every launch replays the graph.
        g = sgemm.loop.slots[0][1]
        assert g.fast_launches == g.launches == 2000 - 2

    def test_graph_replay_is_the_steady_state(self, monkeypatch):
        """Over a 2,000-request trace, at least 95% of the graph launches
        of every replica take the fast path."""
        graphs = {}
        launch = IterationGraph.launch

        def spy(g, n=1):
            graphs[id(g)] = g
            return launch(g, n)

        monkeypatch.setattr(IterationGraph, "launch", spy)
        ServingNode(CFG).run(poisson_trace(2000, rate=50000.0, seed=0))
        launches = sum(g.launches for g in graphs.values())
        fast = sum(g.fast_launches for g in graphs.values())
        assert launches > 0
        assert fast >= 0.95 * launches


class TestConfigValidation:
    def test_rejects_bad_batch_limit(self):
        with pytest.raises(ValueError):
            ServingNode(dataclasses.replace(CFG, batch_limit=0))
        with pytest.raises(ValueError):
            ServingNode(
                dataclasses.replace(CFG, batch_limit=CFG.max_batch + 1)
            )

    def test_rejects_bad_capacity_frac(self):
        with pytest.raises(ValueError):
            ServingNode(dataclasses.replace(CFG, capacity_frac=0.0))
