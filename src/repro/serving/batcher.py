"""Dynamic request batching (DESIGN.md §14).

Queued requests of the same kind are coalesced into one padded
fixed-shape submission. The policy is the standard dynamic batcher: a
batch closes when it reaches ``max_batch`` requests (an input), or when
its oldest member has waited ``max_wait`` simulated seconds (a class
attribute) — so under load batches fill (amortizing the per-submission
host path over up to ``max_batch`` requests), while a lone late-night
request pays at most ``max_wait`` extra latency.

Correctness contract: because replicas execute every batch at one fixed
padded shape (see :class:`repro.serving.models.LeNetEngine`), a
request's result is bitwise independent of its batch-mates — the batcher
changes *latency*, never *answers*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.serving.trace import Request


@dataclass(frozen=True)
class Batch:
    """One closed batch, ready to dispatch to a replica."""

    kind: str
    requests: tuple[Request, ...]
    #: Simulated time the batch was closed (dispatch decision time).
    formed_at: float

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Per-kind FIFO queues with full-or-expired batch closing.

    Args:
        max_batch: Most requests per batch (the replicas' fixed engine
            shape is at least this).
        slo: Optional latency SLO in simulated seconds. When set, a
            queued request whose deadline (``arrival + slo``) has already
            passed is **shed** at batch-close time instead of being
            batched — serving it would burn replica capacity on a
            guaranteed SLO miss (the same dead-on-arrival class of bug as
            the job server's ``_expire_dead_jobs``). A request can never
            be dead at enqueue time (its deadline is ``slo`` past its
            arrival), so close-time shedding covers the enqueue side too.
            Default None preserves the shed-nothing behavior.
    """

    #: Longest a queued request may wait for batch-mates before its
    #: batch is closed partially filled.
    max_wait = 5e-4

    def __init__(self, max_batch: int = 8, slo: float | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if slo is not None and slo <= 0.0:
            raise ValueError("slo must be positive")
        self.max_batch = int(max_batch)
        self.slo = None if slo is None else float(slo)
        self._queues: dict[str, deque[Request]] = {}
        #: Diagnostics: requests enqueued / batches closed / total batched
        #: requests (mean batch size = batched / batches).
        self.enqueued = 0
        self.batches = 0
        self.batched = 0
        #: Requests shed past their SLO deadline (count and records).
        self.shed = 0
        self.shed_requests: list[Request] = []

    def enqueue(self, req: Request) -> None:
        self._queues.setdefault(req.kind, deque()).append(req)
        self.enqueued += 1

    def depth(self) -> int:
        """Total queued requests across kinds."""
        return sum(len(q) for q in self._queues.values())

    def _closable(self, now: float) -> list[str]:
        out = []
        for kind, q in self._queues.items():
            if not q:
                continue
            if len(q) >= self.max_batch or now >= q[0].arrival + self.max_wait:
                out.append(kind)
        return out

    def shed_expired(self, now: float) -> None:
        """Drop queued requests already past their SLO deadline. Queues
        are FIFO by arrival, so expired requests sit at the head. The
        serving loop calls this before it reads :meth:`depth`, so the
        autoscaler never counts a request that is about to be shed."""
        if self.slo is None:
            return
        for q in self._queues.values():
            while q and now >= q[0].arrival + self.slo:
                self.shed_requests.append(q.popleft())
                self.shed += 1

    def pop(self, now: float) -> Batch | None:
        """Close and return the most urgent ready batch at ``now``, or
        None. Urgency is FIFO across kinds: the closable queue whose head
        arrived first wins (kind name breaks exact ties, so the order is
        a pure function of the queue state). With an SLO configured,
        dead-on-arrival requests are shed before the batch forms."""
        self.shed_expired(now)
        ready = self._closable(now)
        if not ready:
            return None
        kind = min(ready, key=lambda k: (self._queues[k][0].arrival, k))
        q = self._queues[kind]
        take = min(self.max_batch, len(q))
        requests = tuple(q.popleft() for _ in range(take))
        self.batches += 1
        self.batched += take
        return Batch(kind=kind, requests=requests, formed_at=now)

    def next_deadline(self) -> float | None:
        """Earliest future time a queued partial batch must close (its
        head's ``arrival + max_wait``), or None when nothing is queued."""
        heads = [q[0].arrival for q in self._queues.values() if q]
        return min(heads) + self.max_wait if heads else None

    @property
    def mean_batch(self) -> float:
        return self.batched / self.batches if self.batches else 0.0
