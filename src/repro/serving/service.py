"""The serving driver: open-loop traffic against replicated engines
(DESIGN.md §14).

:class:`ServingNode` replays a seeded :class:`~repro.serving.trace.
ArrivalTrace` against one simulated multi-GPU node. Requests land in the
:class:`~repro.serving.batcher.DynamicBatcher`; closed batches dispatch
to per-device *replicas* (a device-restricted scheduler hosting both
model engines); a :class:`~repro.serving.autoscaler.ReplicaAutoscaler`
grows and shrinks the replica set as backlog moves.

Time model — virtual clock over real execution
----------------------------------------------
The simulated node is inherently serial: one engine, one global clock.
Replicas, however, are *concurrent* servers. The driver reconciles the
two the standard DES way: it keeps its own **virtual clock** and a
``busy_until`` per replica. When a batch dispatches at virtual time
``t``, the batch runs **for real** on the replica's scheduler (full
functional simulation — plans, transfers, faults, padded kernels), the
node-clock delta is taken as the batch's service time ``s``, and the
replica is busy until ``t + s`` in virtual time. Provisioning a replica
is measured the same way (scheduler build + weight distribution +
warm-up serve). Because each replica owns one device and drains its
streams per serve, the serialized real executions never overlap on a
device — exactly the concurrency one-replica-per-GPU would have.

Everything is a pure function of the trace and the config: run the same
trace twice and arrivals, batch compositions, scaling decisions,
latencies, and result bytes are identical. Two config fields compose
earlier subsystems: ``capacity_frac`` shrinks device memory (the §10
pressure path), ``faults`` installs a :class:`~repro.sim.faults.
FaultPlan` (the §11 straggler path).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core import Scheduler
from repro.hardware import GTX_780, GPUSpec
from repro.serving.autoscaler import ReplicaAutoscaler, ScalingEvent
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.models import LeNetEngine, SgemmEngine
from repro.serving.trace import ArrivalTrace, Request
from repro.sim import SimNode
from repro.sim.faults import FaultPlan

#: Matrix products per SGEMM request.
SGEMM_LAYERS = 6
#: Weight seed of both models, shared by every replica.
MODEL_SEED = 0
#: Batches between clears of the node trace (bounded memory over
#: multi-thousand-request traces).
CLEAR_EVERY = 64


@dataclass(frozen=True)
class ServingConfig:
    """What one serving run varies: the node, the batch limit, SLO
    shedding and the pressure and straggler compositions.

    ``max_batch`` is the replicas' fixed padded engine shape;
    ``batch_limit`` (default: ``max_batch``) caps how many requests the
    batcher may coalesce — setting it to 1 serves every request alone at
    the *same* engine shape, which is the sequential baseline the
    bit-identity tests compare against. The replica ceiling is
    ``num_gpus`` (one replica per device); the batcher's wait and the
    autoscaler's thresholds are class attributes of
    :class:`~repro.serving.batcher.DynamicBatcher` and
    :class:`~repro.serving.autoscaler.ReplicaAutoscaler`.
    """

    spec: GPUSpec = GTX_780
    num_gpus: int = 4
    functional: bool = True
    batch_limit: int | None = None
    #: Latency SLO in simulated seconds: a request completing within
    #: ``slo`` of its arrival counts toward goodput.
    slo: float = 1e-2
    #: Shed queued requests already past their SLO deadline instead of
    #: batching them (see :class:`~repro.serving.batcher.DynamicBatcher`).
    #: Opt-in: the default preserves serve-everything behavior.
    shed_expired: bool = False
    #: Memory-pressure composition: device memory is scaled by this.
    capacity_frac: float = 1.0
    #: Straggler composition: installed on the node when not None.
    faults: FaultPlan | None = None
    #: Constants, readable through a config (not fields): the replicas'
    #: engine batch shape, the SGEMM model's matrix size, and the module
    #: constants.
    max_batch: ClassVar[int] = 8
    sgemm_size: ClassVar[int] = 96
    sgemm_layers: ClassVar[int] = SGEMM_LAYERS
    model_seed: ClassVar[int] = MODEL_SEED
    clear_every: ClassVar[int] = CLEAR_EVERY


@dataclass(frozen=True)
class ServedRequest:
    """Latency record of one completed request."""

    rid: int
    kind: str
    arrival: float
    dispatched: float  # batch close time (virtual)
    completed: float  # virtual completion time
    device: int
    batch_size: int

    @property
    def latency(self) -> float:
        return self.completed - self.arrival


@dataclass
class ServingReport:
    """Everything one serving run produced."""

    config: ServingConfig
    pattern: str
    offered_rate: float
    n_requests: int
    served: list[ServedRequest]
    results: dict[int, np.ndarray]
    makespan: float
    scaling_events: list[ScalingEvent]
    peak_replicas: int
    provisionings: int
    batches: int
    mean_batch: float
    #: Serve graphs captured, and serves launched as one of them.
    graph_captures: int
    graph_launches: int
    #: Requests shed past their SLO deadline instead of served (empty
    #: unless ``config.shed_expired``).
    shed: list[Request] = field(default_factory=list)

    @property
    def latencies(self) -> np.ndarray:
        return np.asarray([s.latency for s in self.served])

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests completing within the SLO —
        shed requests count as misses."""
        lat = self.latencies
        total = len(lat) + len(self.shed)
        if total == 0:
            return 0.0
        return float((lat <= self.config.slo).sum() / total)

    @property
    def goodput(self) -> float:
        """Within-SLO completions per simulated second."""
        if self.makespan <= 0.0:
            return 0.0
        ok = int((self.latencies <= self.config.slo).sum())
        return ok / self.makespan

    @property
    def throughput(self) -> float:
        """Completions per simulated second (shed requests never
        complete)."""
        if self.makespan <= 0.0:
            return 0.0
        return (self.n_requests - len(self.shed)) / self.makespan

    def results_hash(self) -> str:
        """Order-independent digest of every request's result bytes —
        the determinism/bit-identity comparison key."""
        h = hashlib.sha256()
        for rid in sorted(self.results):
            h.update(rid.to_bytes(8, "little", signed=True))
            h.update(self.results[rid].tobytes())
        return h.hexdigest()


class _Replica:
    """One device's copy of both model engines."""

    def __init__(self, node: SimNode, device: int, cfg: ServingConfig):
        self.device = device
        self.sched = Scheduler(node, devices=(device,))
        self.engines = {
            "lenet": LeNetEngine(
                self.sched, cfg.max_batch, model_seed=MODEL_SEED
            ),
            "sgemm": SgemmEngine(
                self.sched,
                cfg.max_batch,
                size=cfg.sgemm_size,
                layers=SGEMM_LAYERS,
                model_seed=MODEL_SEED,
            ),
        }
        #: Virtual times (driver-owned).
        self.ready_at = 0.0
        self.busy_until = 0.0

    def warmup(self) -> None:
        for eng in self.engines.values():
            eng.warmup()

    def serve(self, batch: Batch) -> list[np.ndarray]:
        return self.engines[batch.kind].serve(list(batch.requests))

    def graph_stats(self) -> tuple[int, int]:
        loops = [eng.loop for eng in self.engines.values()]
        return (
            sum(loop.captures for loop in loops),
            sum(loop.replayed for loop in loops),
        )


@dataclass
class _State:
    """Mutable loop state (split out for readability)."""

    replicas: dict[int, _Replica] = field(default_factory=dict)
    retired_graph_stats: tuple[int, int] = (0, 0)
    provisionings: int = 0
    peak: int = 0


class ServingNode:
    """Open-loop serving harness over one simulated node."""

    def __init__(self, cfg: ServingConfig = ServingConfig()):
        self.cfg = cfg
        spec = cfg.spec
        if cfg.capacity_frac != 1.0:
            if not 0.0 < cfg.capacity_frac <= 1.0:
                raise ValueError("capacity_frac must be in (0, 1]")
            spec = dataclasses.replace(
                spec,
                global_memory_bytes=int(
                    spec.global_memory_bytes * cfg.capacity_frac
                ),
            )
        self.node = SimNode(
            spec,
            cfg.num_gpus,
            functional=cfg.functional,
            faults=cfg.faults,
        )
        limit = cfg.batch_limit if cfg.batch_limit is not None else (
            cfg.max_batch
        )
        if not 1 <= limit <= cfg.max_batch:
            raise ValueError(
                f"batch_limit must be in [1, max_batch]; got {limit}"
            )
        self._limit = limit
        self.autoscaler = ReplicaAutoscaler(max_replicas=cfg.num_gpus)

    # -- replica lifecycle ----------------------------------------------------
    def _provision(self, st: _State, now: float) -> None:
        device = min(
            d for d in range(self.cfg.num_gpus) if d not in st.replicas
        )
        t0 = self.node.time
        rep = _Replica(self.node, device, self.cfg)
        rep.warmup()
        rep.ready_at = now + (self.node.time - t0)
        rep.busy_until = rep.ready_at
        st.replicas[device] = rep
        st.provisionings += 1
        st.peak = max(st.peak, len(st.replicas))

    def _retire(self, st: _State, idle: list[_Replica]) -> None:
        rep = max(idle, key=lambda r: r.device)
        c, p = rep.graph_stats()
        c0, p0 = st.retired_graph_stats
        st.retired_graph_stats = (c0 + c, p0 + p)
        del st.replicas[rep.device]
        rep.sched.release()

    # -- the event loop -------------------------------------------------------
    def run(self, trace: ArrivalTrace) -> ServingReport:
        """Replay ``trace`` to completion; returns the full report."""
        cfg = self.cfg
        batcher = DynamicBatcher(
            self._limit, slo=cfg.slo if cfg.shed_expired else None
        )
        st = _State()
        served: list[ServedRequest] = []
        results: dict[int, np.ndarray] = {}
        arrivals: tuple[Request, ...] = trace.requests
        n, ai = len(arrivals), 0
        now = 0.0
        for _ in range(self.autoscaler.min_replicas):
            self._provision(st, now)
        while len(served) + batcher.shed < n:
            while ai < n and arrivals[ai].arrival <= now:
                batcher.enqueue(arrivals[ai])
                ai += 1
            idle = [
                r
                for r in st.replicas.values()
                if r.ready_at <= now and r.busy_until <= now
            ]
            if cfg.shed_expired:
                # Shed before the depth is read: a request past its
                # deadline must not count toward a scale-up.
                batcher.shed_expired(now)
            delta = self.autoscaler.decide(
                now, batcher.depth(), len(st.replicas), len(idle)
            )
            if delta > 0:
                self._provision(st, now)
            elif delta < 0:
                self._retire(st, idle)
                idle = [r for r in idle if r.device in st.replicas]
            while idle:
                batch = batcher.pop(now)
                if batch is None:
                    break
                rep = min(idle, key=lambda r: r.device)
                idle.remove(rep)
                t0 = self.node.time
                outs = rep.serve(batch)
                service = self.node.time - t0
                rep.busy_until = now + service
                for req, out in zip(batch.requests, outs):
                    results[req.rid] = out
                    served.append(
                        ServedRequest(
                            rid=req.rid,
                            kind=req.kind,
                            arrival=req.arrival,
                            dispatched=now,
                            completed=rep.busy_until,
                            device=rep.device,
                            batch_size=len(batch),
                        )
                    )
                if batcher.batches % CLEAR_EVERY == 0:
                    # Bounded memory over long traces: the event trace is
                    # a diagnostic, not state — drop it periodically.
                    self.node.trace.clear()
            nxt: list[float] = []
            if ai < n:
                nxt.append(arrivals[ai].arrival)
            for r in st.replicas.values():
                if r.ready_at > now:
                    nxt.append(r.ready_at)
                if r.busy_until > now:
                    nxt.append(r.busy_until)
            dl = batcher.next_deadline()
            if dl is not None and dl > now:
                nxt.append(dl)
            if not nxt:
                if len(served) + batcher.shed < n:
                    raise RuntimeError(
                        "serving loop stalled with "
                        f"{n - len(served) - batcher.shed} requests "
                        "unserved"
                    )
                break
            now = min(nxt)
        served.sort(key=lambda s: (s.completed, s.rid))
        makespan = served[-1].completed if served else 0.0
        caps, launches = st.retired_graph_stats
        for r in st.replicas.values():
            c, p = r.graph_stats()
            caps += c
            launches += p
        return ServingReport(
            config=cfg,
            pattern=trace.pattern,
            offered_rate=trace.rate,
            n_requests=n,
            served=served,
            results=results,
            makespan=makespan,
            scaling_events=list(self.autoscaler.events),
            peak_replicas=st.peak,
            provisionings=st.provisionings,
            batches=batcher.batches,
            mean_batch=batcher.mean_batch,
            graph_captures=caps,
            graph_launches=launches,
            shed=list(batcher.shed_requests),
        )
