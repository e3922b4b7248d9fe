"""Deterministic fault injection for the simulated node (DESIGN.md §8).

A :class:`FaultPlan` describes *when and where* the simulated hardware
misbehaves. The discrete-event engine consults it at dispatch time, so a
fault always fires **before** a command's functional payload runs — the
command simply does not happen, and device state is never corrupted.
Four fault classes are modelled:

* **Permanent device failure** (:class:`DeviceFailure`): from simulated
  time ``at_time`` on, any kernel or transfer touching the device raises
  :class:`~repro.errors.DeviceFault`. Fail-stop semantics: the device's
  memory contents are gone; the scheduler retires the device and
  re-segments its work across the survivors.
* **Transient transfer faults** (:class:`TransferFault`, or a seeded
  ``transfer_fault_rate``): a matching memcpy raises
  :class:`~repro.errors.TransientTransferError` at dispatch. The
  scheduler retries it — from an alternate valid replica when the
  Segment Location Monitor knows one — after a capped exponential
  backoff in *simulated* time.
* **Allocation failures** (:class:`AllocFailure`): the Nth allocation on
  a device raises an *injected* :class:`~repro.errors.AllocationError`;
  the scheduler treats the device as failed (a device that cannot
  allocate cannot take new work) and re-segments.
* **Stragglers** (:class:`Straggler`): per-device multiplicative
  degradation of compute duration and transfer bandwidth. Stragglers
  never raise; they only stretch the timeline (and must not change
  results or command streams — asserted by tests).

Determinism: all state lives in the plan (explicit counters plus one
``random.Random(seed)``; no global randomness), and the engine's dispatch
order is itself deterministic, so two runs with equal plans produce
identical fault sequences, identical recovery actions and identical
simulated times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import AllocationError
from repro.utils.backoff import capped_backoff


@dataclass(frozen=True)
class DeviceFailure:
    """Permanent fail-stop failure of one device at a simulated time."""

    device: int
    at_time: float


@dataclass(frozen=True)
class TransferFault:
    """Transient failure of specific transfers on a link.

    The ``nth`` dispatched memcpy matching ``(src, dst)`` (1-based; ``None``
    matches any endpoint) faults, as do the following ``count - 1``
    matching dispatches — so ``count`` models how many consecutive attempts
    (including the scheduler's retries over the same link) fail before the
    link heals.
    """

    src: int | None = None
    dst: int | None = None
    nth: int = 1
    count: int = 1


@dataclass(frozen=True)
class AllocFailure:
    """The ``nth_alloc``-th allocation call on ``device`` fails (1-based)."""

    device: int
    nth_alloc: int


@dataclass(frozen=True)
class Straggler:
    """Per-device degradation: kernel durations are multiplied by
    ``compute_factor``; transfers touching the device take
    ``bandwidth_factor`` times longer. Factors must be >= 1.

    ``start``/``end`` bound the degradation's onset window in simulated
    seconds (half-open, ``start <= t < end``); the defaults cover the
    whole run, ``end=None`` means "never heals". Transient slowdowns —
    thermal throttling that clears, a congested link that recovers — are
    modelled by a finite window; commands dispatched outside it run at
    full speed."""

    device: int
    compute_factor: float = 1.0
    bandwidth_factor: float = 1.0
    start: float = 0.0
    end: float | None = None


class FaultPlan:
    """A deterministic schedule of injected faults (see module docstring).

    Args:
        seed: Seed for the plan's private RNG (used only by
            ``transfer_fault_rate`` draws).
        device_failures: Permanent failures.
        transfer_faults: Targeted transient transfer faults.
        alloc_failures: Injected allocation failures.
        stragglers: Per-device slowdown factors.
        transfer_fault_rate: Probability that any dispatched transfer
            faults transiently (drawn from the seeded RNG per dispatch;
            deterministic because dispatch order is).
        retry_base: First retry backoff in simulated seconds.
        retry_cap: Upper bound on a single backoff interval.
        max_retries: Retries per logical transfer before the scheduler
            gives up with :class:`~repro.errors.UnrecoverableError`.
        mitigate_stragglers: Enable straggler mitigation (DESIGN.md §11):
            throughput-feedback rebalancing, the progress watchdog with
            speculative segment re-execution, and hedged transfers. Off
            by default — stragglers then only stretch the timeline, which
            is the baseline the mitigation is measured against.
        watchdog_patience: Deadline factor of the progress watchdog: a
            kernel whose projected duration exceeds ``patience`` times its
            calibrated duration raises
            :class:`~repro.errors.StragglerAlarm` at dispatch, with the
            deadline ``start + patience * nominal`` as the earliest time
            mitigation may act.
        hedge_patience: Same deadline factor for transfers stuck behind a
            degraded link (hedged-copy path).
        max_speculations: Straggler budget — total speculative kernel
            re-executions plus hedged transfers per run. A transfer alarm
            with no alternate replica *and* an exhausted budget raises
            :class:`~repro.errors.StragglerTimeoutError`.
        rebalance_threshold: Minimum observed slowdown (EWMA) divergence
            before future submissions are re-segmented proportionally to
            observed throughput (0.25 = rebalance past 1.25x).
        ewma_alpha: Weight of the newest observation in the scheduler's
            per-device throughput EWMA.
    """

    def __init__(
        self,
        seed: int = 0,
        device_failures: list[DeviceFailure] | None = None,
        transfer_faults: list[TransferFault] | None = None,
        alloc_failures: list[AllocFailure] | None = None,
        stragglers: list[Straggler] | None = None,
        transfer_fault_rate: float = 0.0,
        retry_base: float = 1e-5,
        retry_cap: float = 1e-3,
        max_retries: int = 8,
        mitigate_stragglers: bool = False,
        watchdog_patience: float = 2.0,
        hedge_patience: float = 2.0,
        max_speculations: int = 8,
        rebalance_threshold: float = 0.25,
        ewma_alpha: float = 0.8,
    ):
        self.seed = seed
        self.rng = random.Random(seed)
        self.device_failures = list(device_failures or [])
        self.transfer_faults = list(transfer_faults or [])
        self.alloc_failures = {
            (a.device, a.nth_alloc) for a in (alloc_failures or [])
        }
        self.transfer_fault_rate = float(transfer_fault_rate)
        self.retry_base = float(retry_base)
        self.retry_cap = float(retry_cap)
        self.max_retries = int(max_retries)
        self.mitigate_stragglers = bool(mitigate_stragglers)
        self.watchdog_patience = float(watchdog_patience)
        self.hedge_patience = float(hedge_patience)
        self.max_speculations = int(max_speculations)
        self.rebalance_threshold = float(rebalance_threshold)
        self.ewma_alpha = float(ewma_alpha)
        if self.watchdog_patience < 1.0 or self.hedge_patience < 1.0:
            raise ValueError("straggler patience factors must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.transfer_fault_rate < 1.0:
            raise ValueError("transfer_fault_rate must be in [0, 1)")
        if self.retry_base < 0.0 or self.retry_cap < 0.0:
            raise ValueError("retry backoff base/cap must be >= 0")
        if self.max_retries < 0 or self.max_speculations < 0:
            raise ValueError("max_retries/max_speculations must be >= 0")
        for t in self.transfer_faults:
            # Link counts start at 1, so nth/count below 1 never fire.
            if t.nth < 1 or t.count < 1:
                raise ValueError(
                    f"transfer fault nth/count must be >= 1, got {t}"
                )
        #: device -> onset-windowed degradation entries
        #: ``(start, end, compute_factor, bandwidth_factor)``.
        self._stragglers: dict[
            int, list[tuple[float, float | None, float, float]]
        ] = {}
        for s in stragglers or []:
            if s.compute_factor < 1.0 or s.bandwidth_factor < 1.0:
                raise ValueError(
                    f"straggler factors must be >= 1, got {s}"
                )
            if s.end is not None and s.start > s.end:
                raise ValueError(
                    f"straggler onset window must have start <= end, got {s}"
                )
            self._stragglers.setdefault(s.device, []).append(
                (s.start, s.end, s.compute_factor, s.bandwidth_factor)
            )
        #: Epoch offset in simulated seconds (DESIGN.md §13): every time
        #: in the plan — straggler onset windows, permanent failure times —
        #: is *plan-relative*, and the node's clock is mapped through
        #: ``now - epoch`` before comparison. A standalone node leaves it
        #: at 0.0 so plan time equals node time; the job server rebases a
        #: tenant's plan at each lease so a job resumed mid-window sees the
        #: remainder of the window, not a window that "already happened"
        #: while another tenant held the devices.
        self.epoch = 0.0
        #: Plan-relative permanent failures already delivered in an earlier
        #: lease (the server marks them consumed at lease teardown: the
        #: device was repaired/replaced between leases, so requeue-after-
        #: fault retries against healthy hardware instead of re-dying).
        self.consumed_failures: set[int] = set()
        #: Per-(src, dst) count of dispatched transfers, for `nth` matching.
        self._link_counts: dict[tuple[int | None, int | None], int] = {}
        #: Diagnostics, also used by `repro.bench --faults` reports.
        self.transfer_faults_fired = 0
        self.alloc_faults_fired = 0
        #: Mitigation diagnostics (`repro.bench --stragglers` reports).
        self.speculations_fired = 0
        self.hedges_fired = 0

    # -- epoch rebasing ------------------------------------------------------
    def rebase(self, epoch: float) -> None:
        """Anchor the plan's relative clock at simulated time ``epoch``.

        Called by the job server at lease begin with ``node.time`` minus
        the job's previously-consumed execution time, so a plan written in
        job-relative seconds fires at the same point of the job's life
        regardless of how long it queued or how often it was preempted.
        """
        self.epoch = float(epoch)

    # -- permanent failures --------------------------------------------------
    def failure_times(self) -> dict[int, float]:
        """Device -> earliest permanent-failure time in *absolute* simulated
        seconds (engine dead-map seed): plan-relative times shifted by the
        current epoch, minus failures already consumed by earlier leases."""
        times: dict[int, float] = {}
        for f in self.device_failures:
            if f.device in self.consumed_failures:
                continue
            t = times.get(f.device)
            abs_t = f.at_time + self.epoch
            times[f.device] = abs_t if t is None else min(t, abs_t)
        return times

    # -- stragglers ----------------------------------------------------------
    def _factor(self, device: int, now: float | None, idx: int) -> float:
        """Worst active degradation factor (``idx`` selects compute vs
        bandwidth). ``now=None`` ignores onset windows and returns the
        worst factor the device ever has (conservative; also the legacy
        whole-run behaviour for windowless stragglers)."""
        worst = 1.0
        if now is not None:
            now -= self.epoch
        for start, end, *factors in self._stragglers.get(device, ()):
            if now is not None and (
                now < start or (end is not None and now >= end)
            ):
                continue
            worst = max(worst, factors[idx])
        return worst

    # Both queries run on every kernel/memcpy dispatch, armed or not; the
    # membership tests keep them constant-time for undegraded devices.
    def compute_factor(self, device: int, now: float | None = None) -> float:
        if device not in self._stragglers:
            return 1.0
        return self._factor(device, now, 0)

    def transfer_factor(
        self, src: int, dst: int, now: float | None = None
    ) -> float:
        """Slowdown of a transfer: the worse of the two endpoints."""
        s = self._stragglers
        if src not in s and dst not in s:
            return 1.0
        return max(
            self._factor(src, now, 1),
            self._factor(dst, now, 1),
        )

    # -- transient transfer faults -------------------------------------------
    def transfer_faults_now(self, src: int, dst: int) -> bool:
        """Whether the transfer being dispatched on ``src -> dst`` faults.

        Stateful: advances the per-link dispatch counters (exact-link and
        wildcard specs count independently) and, when a fault rate is set,
        draws from the plan's RNG. Call exactly once per memcpy dispatch.
        """
        fault = False
        for spec in self.transfer_faults:
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            key = (spec.src, spec.dst)
            n = self._link_counts.get(key, 0) + 1
            self._link_counts[key] = n
            if spec.nth <= n < spec.nth + spec.count:
                fault = True
        if self.transfer_fault_rate > 0.0:
            if self.rng.random() < self.transfer_fault_rate:
                fault = True
        if fault:
            self.transfer_faults_fired += 1
        return fault

    # -- allocation failures -------------------------------------------------
    def check_alloc(self, device: int, nth: int) -> None:
        """Raise an injected AllocationError if the plan fails this alloc."""
        if (device, nth) in self.alloc_failures:
            self.alloc_faults_fired += 1
            raise AllocationError(
                f"injected allocation failure: device {device}, "
                f"allocation #{nth}",
                device=device,
                injected=True,
            )

    # -- retry policy ----------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """Simulated-time delay before retry ``attempt`` (1-based):
        capped exponential ``min(retry_base * 2**(attempt-1), retry_cap)``."""
        return capped_backoff(self.retry_base, attempt, self.retry_cap)
