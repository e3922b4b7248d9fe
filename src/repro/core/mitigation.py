"""Straggler mitigation (DESIGN.md §11): throughput feedback, segment
weights, speculative re-execution and hedged transfers.

Strictly opt-in via ``FaultPlan.mitigate_stragglers``: the scheduler
builds a :class:`Mitigator` only then. Without one it holds no mitigation
state, installs no engine observer and attaches no :class:`_KernelOrigin`,
so its command stream is byte-identical to a build without this feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core import recovery
from repro.core.datum import Datum
from repro.core.location_monitor import CopyOp
from repro.core.plan import TaskPlan
from repro.core.task import Task
from repro.errors import AllocationError, StragglerAlarm, StragglerTimeoutError
from repro.sim.commands import EventRecord, EventWait

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler


@dataclass
class _KernelOrigin:
    """Provenance attached to a per-segment KernelLaunch (``cmd.origin``)
    when straggler mitigation is on, so the watchdog's
    :class:`~repro.errors.StragglerAlarm` carries enough context to
    speculatively re-execute the segment on an idle device.
    ``dev_events`` is the replay's shared device -> completion-event map
    (fully populated before any wait can alarm)."""

    task: Task
    plan: TaskPlan
    device: int
    dev_events: dict
    alarmed: bool = False


class Mitigator:
    """The feedback estimates and speculation streams of one scheduler,
    and its reaction to watchdog alarms. Building one installs the
    engine observer; ``Scheduler.release`` unhooks it."""

    def __init__(self, sched: "Scheduler"):
        self.sched = sched
        #: device -> EWMA of observed/calibrated kernel duration ratio.
        self.ewma_c: dict[int, float] = {}
        #: (src, dst) -> EWMA of observed/calibrated transfer ratio
        #: (diagnostics; deliberately not folded into segment weights, as
        #: a degraded shared link would taint healthy endpoints).
        self.ewma_t: dict[tuple[int, int], float] = {}
        #: device -> dedicated speculation stream (created lazily).
        self.spec_streams: dict[int, object] = {}
        sched.node.engine.observer = self.observe

    # -- feedback ------------------------------------------------------------
    def observe(self, kind: str, where, nominal: float, actual: float) -> None:
        """Engine dispatch hook: fold one observed/calibrated duration
        ratio into the per-device (kernel) or per-route (transfer) EWMA.
        Runs in simulated-dispatch order, so the estimate stream — and
        everything derived from it — is deterministic under a fixed seed.
        """
        if nominal <= 0.0:
            return
        ratio = actual / nominal
        a = self.sched.node.faults.ewma_alpha
        table = self.ewma_c if kind == "kernel" else self.ewma_t
        prev = table.get(where)
        table[where] = ratio if prev is None else prev + a * (ratio - prev)

    def weights(self) -> tuple[int, ...] | None:
        """Quantized per-device throughput weights from the compute EWMA.

        Returns None — the even-split default, byte-identical to a run
        without mitigation — until observed throughput diverges from the
        calibration by more than ``rebalance_threshold``. Weights are
        relative speeds (1/slowdown) quantized to integers in 1..16 so the
        plan-cache key stays stable across jittery estimates and re-hits
        the even-split plans after a transient straggler heals.
        """
        sched = self.sched
        fp = sched.node.faults
        slowdowns = [max(self.ewma_c.get(d, 1.0), 1e-9) for d in sched._alive]
        if max(slowdowns) < 1.0 + fp.rebalance_threshold:
            return None
        speeds = [1.0 / s for s in slowdowns]
        m = max(speeds)
        q = tuple(max(1, round(16.0 * sp / m)) for sp in speeds)
        if len(set(q)) == 1:
            return None
        return q

    def refresh(self) -> None:
        """Re-derive segment weights from the EWMAs; on change, re-analyze
        every declared task under the new split so allocations cover the
        shifted segments before the next plan build (growth preserves
        contents, exactly as after fault recovery)."""
        sched = self.sched
        w = self.weights()
        if w == sched._weights:
            return
        sched._graph_generation += 1
        sched._weights = w
        sched._reanalyze()

    def forget(self, device: int) -> None:
        """Device retirement: feedback mentioning the dead device is
        meaningless now; re-derive segment weights over the survivors."""
        self.ewma_c.pop(device, None)
        for key in [k for k in self.ewma_t if device in k]:
            del self.ewma_t[key]
        self.sched._weights = self.weights()

    # -- alarms ----------------------------------------------------------------
    def mitigate(self, alarm: StragglerAlarm) -> None:
        """React to a watchdog alarm: speculatively re-execute a lagging
        kernel segment on an idle device, or hedge a transfer stuck behind
        a degraded route from an alternate replica.

        The host notices at the watchdog deadline, so the host clock is
        advanced there first — every mitigation command submitted below
        carries the deadline as its ``earliest_start`` (recovery does the
        same with the fault time).
        """
        node = self.sched.node
        node.host_time = max(node.host_time, alarm.time)
        # The projection itself is a throughput observation: a speculated
        # (cancelled) kernel never dispatches, so without this the
        # feedback loop would never learn about the straggler it keeps
        # paying to work around.
        projected = alarm.projected_end - alarm.start
        if alarm.kind == "kernel":
            self.observe("kernel", alarm.device, alarm.nominal, projected)
            handled = self._speculate_kernel(alarm)
        else:
            cmd = alarm.command
            self.observe(
                "memcpy", (cmd.src, cmd.dst), alarm.nominal, projected
            )
            handled = self._hedge_transfer(alarm)
        if not handled:
            # Decline: re-queue the popped command untouched. Its origin
            # is marked alarmed, so it runs (slowly) to completion, and
            # its timeline is exactly what an unmitigated run produces.
            alarm.stream.commands.appendleft(alarm.command)

    def _spec_stream(self, device: int):
        """A dedicated per-device stream for speculative re-execution.

        Speculation commands must not queue behind unrelated work on the
        device's regular streams: an already-queued copy there may wait on
        the very completion event whose recording the speculation gates
        (the commit publication), which would deadlock the stream."""
        s = self.spec_streams.get(device)
        if s is None:
            s = self.sched.node.new_stream(device, "spec", f"gpu{device}.spec")
            self.spec_streams[device] = s
        return s

    def _pick_alternate(
        self, alarm: StragglerAlarm
    ) -> Optional[tuple[int, float]]:
        """The device to re-execute a lagging segment on, with the time it
        is (estimated to be) free.

        Eligible peers are alive, active in the same plan, and have
        nothing queued on their compute stream beyond their own segment:
        later queued work was planned without knowledge of the speculation
        and could clobber the staged inputs. A peer whose own segment is
        still in flight is usable — the watchdog alarm surfaces at
        dispatch, which is earlier in dispatch order than the peers'
        completions even though the modelled reaction time (the deadline)
        is later — with its completion estimated from the plan's
        calibrated duration. Earliest-free wins; ties go to the lowest
        device index."""
        sched = self.sched
        origin = alarm.command.origin
        durations = sched._durations(origin.task, origin.plan)
        cands = []
        for o in origin.plan.active:
            if o == origin.device or o not in sched._alive \
                    or o in sched.node.engine.dead:
                continue
            ev = origin.dev_events.get(o)
            if ev is None:
                continue
            cmds = sched._compute[o].commands
            if ev.recorded:
                if cmds:
                    continue
                done = ev.recorded_at
            else:
                if not cmds or not (
                    isinstance(cmds[-1], EventRecord)
                    and cmds[-1].event is ev
                ):
                    continue
                done = alarm.start + durations[o] * max(
                    1.0, self.ewma_c.get(o, 1.0)
                )
            cands.append((done, o))
        if not cands:
            return None
        done, alt = min(cands)
        return alt, done

    def _estimate_speculation(
        self, alarm: StragglerAlarm, alt: int, alt_ready: float,
        staging: list,
    ) -> float:
        """Deterministic completion estimate of re-executing the slow
        segment on ``alt``: staging the missing inputs, the kernel at the
        alternate's calibrated (EWMA-corrected) speed, and the commit
        copies back to the slow device — serialized, as the speculation
        stream runs them in order. Compared by the caller against letting
        the straggler run to ``alarm.projected_end``."""
        topo = self.sched.node.topology
        origin = alarm.command.origin
        dp = origin.plan.device_plans[origin.device]
        t = max(alarm.time, alt_ready)
        for datum, op in staging:
            nbytes = op.actual.size * datum.dtype.itemsize
            t += topo.transfer_time(nbytes, topo.path(op.src, alt)) \
                * self.ewma_t.get((op.src, alt), 1.0)
        t += self.sched._duration(origin.task, alt, dp.work_rect) \
            * max(1.0, self.ewma_c.get(alt, 1.0))
        back = self.ewma_t.get((alt, origin.device), 1.0)
        for i, c in enumerate(origin.task.outputs):
            rect = dp.output_rects[i]
            if rect.empty:
                continue
            nbytes = rect.size * c.datum.dtype.itemsize
            t += topo.transfer_time(
                nbytes, topo.path(alt, origin.device)
            ) * back
        return t

    def _speculate_kernel(self, alarm: StragglerAlarm) -> bool:
        """Re-execute a lagging kernel segment on an idle device,
        first-complete-wins; False when the straggler should run instead.

        Commit-copy protocol: the alternate recomputes the slow device's
        exact segment (same work rect, same ``num_devices`` — bit-identical
        arithmetic), publishes its outputs in the location monitor
        (retracting the slow device's optimistic submit-time instances),
        then copies them into the slow device's buffer. The slow stream's
        still-queued completion EventRecord is gated on the commit, so
        already-queued downstream consumers — which wait on that event and
        whose payloads are bound to the slow device's buffer — stay
        correct in both data and time; the task handle's events never
        change. The loser kernel is dropped (its writes were purely
        simulated-future, so there is nothing to discard)."""
        sched = self.sched
        node = sched.node
        fp = node.faults
        monitor = sched.monitor
        origin = alarm.command.origin
        task, plan, d = origin.task, origin.plan, origin.device
        dp = plan.device_plans[d]
        picked = self._pick_alternate(alarm)
        if (
            picked is None
            or fp.speculations_fired >= fp.max_speculations
            or sched.sanitize
            or any(c.duplicated for c in task.outputs)
            or any(
                o.datum is i.datum for o in task.outputs for i in task.inputs
            )
        ):
            # No idle healthy device, budget exhausted, or the task is
            # outside speculation's envelope (duplicated partials would
            # double-count; in-place datums could cycle the commit
            # publication; sanitize-mode race pools need every segment's
            # recorder): let the straggler run.
            return False
        alt, alt_ready = picked
        # Staging plan (pure): input pieces the alternate is missing.
        staging: list[tuple[Datum, CopyOp]] = [
            (c.datum, op)
            for c, req in zip(task.inputs, dp.input_reqs)
            for op in monitor.compute_copies(
                c.datum, [a for _, a in req.pieces], alt,
                prefer=sched._peers(alt),
            )
        ]
        if any(op.wait is not None and not op.wait.recorded
               for _, op in staging):
            # An unrecorded staging producer may transitively wait on this
            # very segment's completion event — speculating could deadlock.
            return False
        if self._estimate_speculation(alarm, alt, alt_ready, staging) \
                >= alarm.projected_end:
            return False
        # Grow the alternate's boxes/buffers to cover the slow segment
        # before touching any shared state: a genuine OOM abandons the
        # speculation cleanly; an injected one retires the device (the
        # standard allocation-fault path).
        try:
            for c, req in zip(task.inputs, dp.input_reqs):
                sched.analyzer.absorb(c.datum, alt, req.virtual)
            for c, rect in zip(task.outputs, dp.output_rects):
                sched.analyzer.absorb(c.datum, alt, rect)
            for c in task.containers:
                sched.analyzer.buffer(c.datum, alt)
        except AllocationError as e:
            if not e.injected:
                return False
            alarm.stream.commands.appendleft(alarm.command)
            recovery.recover(sched, e.device, node.time)
            return True
        fp.speculations_fired += 1
        stream = self._spec_stream(alt)
        # Serialize the speculation after the alternate's own segment:
        # data-wise the two touch disjoint regions, but the explicit wait
        # keeps the alternate's own completion — which downstream
        # consumers depend on — first in line for its compute engine.
        node.wait_event(stream, origin.dev_events[alt])
        for datum, op in staging:
            sched._enqueue_copy(datum, op, stream=stream)
        payload = sched._kernel_payload(task, alt, dp, len(plan.active))
        label = f"spec:{task.name}@gpu{alt}"
        node.launch_kernel(
            stream, sched._duration(task, alt, dp.work_rect), payload,
            label=label,
        )
        skev = node.record_event(stream, label)
        for c in task.inputs:
            monitor.mark_read(c.datum, alt, skev, node.host_time)
        commit_evs = []
        for i, c in enumerate(task.outputs):
            rect = dp.output_rects[i]
            if rect.empty:
                continue
            monitor.mark_written(c.datum, alt, rect, skev)
            commit_evs.append(sched._enqueue_copy(
                c.datum, CopyOp(alt, d, rect, skev), stream=stream
            ))
        # Gate the slow stream's queued completion EventRecord on the
        # commit: the event publishes once the buffer is truly up to date.
        for ev in commit_evs:
            alarm.stream.commands.appendleft(EventWait(
                earliest_start=alarm.time, event=ev,
            ))
        return True

    def _hedge_transfer(self, alarm: StragglerAlarm) -> bool:
        """Re-route a transfer stuck behind a degraded link: once the
        hedging deadline passes, re-issue it from an alternate ready
        replica. With no alternate (or no budget) the slow transfer runs
        to completion (False); with neither, the typed
        :class:`~repro.errors.StragglerTimeoutError` tells the application
        the route is degraded beyond the mitigation budget."""
        sched = self.sched
        node = sched.node
        fp = node.faults
        cmd = alarm.command
        alt = recovery.alternate(sched, cmd.origin)
        has_budget = fp.hedges_fired < fp.max_speculations
        if alt is None and not has_budget:
            raise StragglerTimeoutError(
                f"transfer {cmd.label!r} projected "
                f"{alarm.projected_end - alarm.start:.3g}s against "
                f"{alarm.nominal:.3g}s calibrated; no alternate replica "
                "exists and the mitigation budget is exhausted",
                device=alarm.device,
                time=alarm.time,
            ) from alarm
        if alt is not None:
            # Hedge only when the reroute beats the degraded route's
            # projection (deterministic estimate, like speculation): the
            # alternate starts at the hedging deadline and may itself be
            # running over calibration.
            topo = node.topology
            dst = cmd.origin.op.dst
            est = alarm.time + topo.transfer_time(
                cmd.nbytes, topo.path(alt[0], dst, cmd.pageable)
            ) * self.ewma_t.get((alt[0], dst), 1.0)
            if est >= alarm.projected_end:
                alt = None
        if alt is None or not has_budget:
            return False
        fp.hedges_fired += 1
        recovery.reroute(sched, cmd, alarm.stream, alt, "hedge", alarm.time)
        return True
