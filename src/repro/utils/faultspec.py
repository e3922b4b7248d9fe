"""Fault-spec vocabulary shared by the node and cluster fault plans.

:class:`~repro.sim.faults.FaultPlan` (DESIGN.md §8) and
:class:`~repro.cluster.faults.ClusterFaultPlan` (§15) build on these
pieces instead of each holding its own copy: one link-fault spec, one
per-link fault counter with its optional seeded rate draw and the retry
backoff (:class:`LinkFaultPlan`), and one half-open onset window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.utils.backoff import capped_backoff


def link_matches(
    key_src: int | None, key_dst: int | None, src: int, dst: int
) -> bool:
    """Whether ``src -> dst`` matches a link pattern (``None`` = any)."""
    return (key_src is None or key_src == src) and (
        key_dst is None or key_dst == dst
    )


@dataclass(frozen=True)
class LinkFault:
    """Transient failure of specific dispatches on a link.

    The ``nth`` dispatch matching the directed link ``(src, dst)``
    (1-based; ``None`` matches any endpoint) fails, as do the following
    ``count - 1`` matching dispatches — so ``count`` models how many
    consecutive attempts (including retries over the same link) fail
    before the link heals. A dispatch is a memcpy on a node
    (``TransferFault``) or a message send on the cluster fabric.
    """

    src: int | None = None
    dst: int | None = None
    nth: int = 1
    count: int = 1


class LinkFaultPlan:
    """What the node and cluster fault plans share: a seed and its
    private RNG, the retry policy, and one link-fault counter.

    The counter keeps a dispatch count per spec key ``(src, dst)``:
    exact-link and wildcard keys count independently, and each key a
    dispatch matches advances once, however many specs share it. A
    seeded loss ``rate`` draws once per dispatch. The retry policy is
    each subclass's class attributes, not an input.
    """

    # The retry policy, set by each subclass (see :meth:`backoff`).
    retry_base: float
    retry_cap: float
    max_retries: int

    def __init__(self, seed: int, specs: list[LinkFault], rate: float):
        self.seed = seed
        self.rng = random.Random(seed)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"fault rate must be in [0, 1), got {rate}")
        #: key -> half-open ``[nth, nth + count)`` count ranges that fault.
        self._link_spans: dict[tuple, list[tuple[int, int]]] = {}
        for s in specs:
            # Counts start at 1, so nth/count below 1 never fire.
            if s.nth < 1 or s.count < 1:
                raise ValueError(f"link fault nth/count must be >= 1, got {s}")
            self._link_spans.setdefault((s.src, s.dst), []).append(
                (s.nth, s.nth + s.count)
            )
        self._link_rate = rate
        self._link_counts: dict[tuple, int] = {}
        #: False when no dispatch can ever fail: the unarmed fast path.
        self._links_armed = bool(self._link_spans) or rate > 0.0
        self.link_faults_fired = 0

    def link_fault_now(self, src: int, dst: int) -> bool:
        """Whether the dispatch (memcpy or message send) on ``src -> dst``
        fails. Stateful: advances the matching keys' counts and draws
        from the RNG when a rate is set; call exactly once per dispatch."""
        if not self._links_armed:
            return False
        fault = False
        counts = self._link_counts
        for key, spans in self._link_spans.items():
            if not link_matches(*key, src, dst):
                continue
            n = counts[key] = counts.get(key, 0) + 1
            for lo, hi in spans:
                if lo <= n < hi:
                    fault = True
        if self._link_rate > 0.0 and self.rng.random() < self._link_rate:
            fault = True
        if fault:
            self.link_faults_fired += 1
        return fault

    def link_faults_pending(self) -> bool:
        """Whether a future dispatch may still fail: a rate is set or
        some spec has not yet reached its last faulting count. Counts
        only grow, so once this is False it stays False."""
        if self._link_rate > 0.0:
            return True
        counts = self._link_counts
        return any(
            counts.get(key, 0) < hi - 1
            for key, spans in self._link_spans.items()
            for _, hi in spans
        )

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): capped exponential
        ``min(retry_base * 2**(attempt-1), retry_cap)``."""
        return capped_backoff(self.retry_base, attempt, self.retry_cap)


class Window:
    """Mixin for specs with a half-open ``[start, end)`` onset window in
    simulated seconds; ``end=None`` means the window never closes."""

    start: float
    end: float | None

    def covers(self, t: float) -> bool:
        return self.start <= t and (self.end is None or t < self.end)

    def healed(self, t: float) -> bool:
        """Whether the window closed at or before ``t``."""
        return self.end is not None and t >= self.end

    def check_window(self) -> None:
        if self.end is not None and self.start > self.end:
            raise ValueError(f"window must have start <= end, got {self}")
