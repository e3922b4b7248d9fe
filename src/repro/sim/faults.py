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

import math
from dataclasses import dataclass

from repro.errors import AllocationError
from repro.utils.faultspec import LinkFault, LinkFaultPlan, Window


@dataclass(frozen=True)
class DeviceFailure:
    """Permanent fail-stop failure of one device at a simulated time."""

    device: int
    at_time: float


#: Targeted transient transfer fault: the nth memcpy dispatched on a link
#: fails, ``count`` times in a row (see :class:`LinkFault`).
TransferFault = LinkFault


@dataclass(frozen=True)
class AllocFailure:
    """The ``nth_alloc``-th allocation call on ``device`` fails (1-based)."""

    device: int
    nth_alloc: int


@dataclass(frozen=True)
class Straggler(Window):
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


class FaultPlan(LinkFaultPlan):
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
        mitigate_stragglers: Enable straggler mitigation (DESIGN.md §11):
            throughput-feedback rebalancing, the progress watchdog with
            speculative segment re-execution, and hedged transfers. Off
            by default — stragglers then only stretch the timeline, which
            is the baseline the mitigation is measured against.

    The retry and mitigation policy is fixed by the class attributes
    below; a plan takes faults, not tunables.
    """

    #: First retry backoff in simulated seconds.
    retry_base = 1e-5
    #: Upper bound on a single backoff interval.
    retry_cap = 1e-3
    #: Retries per logical transfer before the scheduler gives up with
    #: :class:`~repro.errors.UnrecoverableError`.
    max_retries = 8
    #: Deadline factor of the progress watchdog: a kernel whose projected
    #: duration exceeds ``patience`` times its calibrated duration raises
    #: :class:`~repro.errors.StragglerAlarm` at dispatch, with the
    #: deadline ``start + patience * nominal`` as the earliest time
    #: mitigation may act.
    watchdog_patience = 2.0
    #: Same deadline factor for transfers stuck behind a degraded link
    #: (hedged-copy path).
    hedge_patience = 2.0
    #: Straggler budget — total speculative kernel re-executions plus
    #: hedged transfers per run. A transfer alarm with no alternate
    #: replica *and* an exhausted budget raises
    #: :class:`~repro.errors.StragglerTimeoutError`.
    max_speculations = 8
    #: Minimum observed slowdown (EWMA) divergence before future
    #: submissions are re-segmented proportionally to observed throughput
    #: (0.25 = rebalance past 1.25x).
    rebalance_threshold = 0.25
    #: Weight of the newest observation in the scheduler's per-device
    #: throughput EWMA.
    ewma_alpha = 0.8

    def __init__(
        self,
        seed: int = 0,
        device_failures: list[DeviceFailure] | None = None,
        transfer_faults: list[TransferFault] | None = None,
        alloc_failures: list[AllocFailure] | None = None,
        stragglers: list[Straggler] | None = None,
        transfer_fault_rate: float = 0.0,
        mitigate_stragglers: bool = False,
    ):
        self.device_failures = list(device_failures or [])
        self.transfer_faults = list(transfer_faults or [])
        self.alloc_failures = {
            (a.device, a.nth_alloc) for a in (alloc_failures or [])
        }
        self.transfer_fault_rate = float(transfer_fault_rate)
        self.mitigate_stragglers = bool(mitigate_stragglers)
        super().__init__(seed, self.transfer_faults, self.transfer_fault_rate)
        #: device -> the stragglers degrading it.
        self._stragglers: dict[int, list[Straggler]] = {}
        for s in stragglers or []:
            if s.compute_factor < 1.0 or s.bandwidth_factor < 1.0:
                raise ValueError(
                    f"straggler factors must be >= 1, got {s}"
                )
            s.check_window()
            self._stragglers.setdefault(s.device, []).append(s)
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
        #: Diagnostics, also used by `repro.bench --faults` reports.
        self.alloc_faults_fired = 0
        #: Mitigation diagnostics (`repro.bench --stragglers` reports).
        self.speculations_fired = 0
        self.hedges_fired = 0
        #: :meth:`armed` is False from this plan-relative time on.
        self._quiet = self._quiet_time()

    # -- epoch rebasing ------------------------------------------------------
    def rebase(self, epoch: float) -> None:
        """Anchor the plan's relative clock at simulated time ``epoch``.

        Called by the job server at lease begin with ``node.time`` minus
        the job's previously-consumed execution time, so a plan written in
        job-relative seconds fires at the same point of the job's life
        regardless of how long it queued or how often it was preempted.
        """
        self.epoch = float(epoch)
        self._quiet = self._quiet_time()

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
    def _factor(self, device: int, now: float | None, field: str) -> float:
        """Worst active degradation ``field`` (compute or bandwidth
        factor). ``now=None`` ignores onset windows and returns the worst
        factor the device ever has (conservative; also the legacy
        whole-run behaviour for windowless stragglers)."""
        worst = 1.0
        if now is not None:
            now -= self.epoch
        for s in self._stragglers.get(device, ()):
            if now is None or s.covers(now):
                worst = max(worst, getattr(s, field))
        return worst

    # Both queries run on every kernel/memcpy dispatch, armed or not; the
    # membership tests keep them constant-time for undegraded devices.
    def compute_factor(self, device: int, now: float | None = None) -> float:
        if device not in self._stragglers:
            return 1.0
        return self._factor(device, now, "compute_factor")

    def transfer_factor(
        self, src: int, dst: int, now: float | None = None
    ) -> float:
        """Slowdown of a transfer: the worse of the two endpoints."""
        s = self._stragglers
        if src not in s and dst not in s:
            return 1.0
        return max(
            self._factor(src, now, "bandwidth_factor"),
            self._factor(dst, now, "bandwidth_factor"),
        )

    # -- transient transfer faults -------------------------------------------
    def transfer_faults_now(self, src: int, dst: int) -> bool:
        """Whether the memcpy being dispatched on ``src -> dst`` faults;
        call exactly once per dispatch (:meth:`LinkFaultPlan.link_fault_now`).
        A spec stops being pending only at a dispatch that faults, so the
        quiet time is recomputed then."""
        if self.link_fault_now(src, dst):
            self._quiet = self._quiet_time()
            return True
        return False

    @property
    def transfer_faults_fired(self) -> int:
        """Transfers faulted so far (`repro.bench --faults` reports)."""
        return self.link_faults_fired

    def _quiet_time(self) -> float:
        """The plan-relative time from which :meth:`armed` is False: the
        latest heal of a straggler window with a non-unit factor, or
        infinity while a link fault is pending or a window never heals."""
        if self.link_faults_pending():
            return math.inf
        quiet = -math.inf
        for wins in self._stragglers.values():
            for s in wins:
                if s.compute_factor != 1.0 or s.bandwidth_factor != 1.0:
                    if s.end is None:
                        return math.inf
                    quiet = max(quiet, s.end)
        return quiet

    def armed(self, now: float) -> bool:
        """Whether a dispatch at or after simulated time ``now`` could
        still see an effect of this plan other than a permanent failure
        (those live in the engine's dead map): a fault rate or an
        unexhausted transfer-fault spec, or a straggler factor whose
        window has not healed. Constant time: the quiet time is cached
        (windows are plan-relative, so :meth:`rebase` only re-reads it).
        The graph fast path (DESIGN.md §12) replays only when this is
        False, and the engine skips its dispatch checks."""
        return now - self.epoch < self._quiet

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
