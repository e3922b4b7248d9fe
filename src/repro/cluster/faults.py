"""Deterministic fault injection for the simulated cluster (DESIGN.md §15).

The cluster-level counterpart of :mod:`repro.sim.faults`, built on the
same :mod:`repro.utils.faultspec` vocabulary: a :class:`ClusterFaultPlan`
describes when and where the *fabric and whole nodes* misbehave, one
level of the failure hierarchy above the per-node
:class:`~repro.sim.faults.FaultPlan`. Four fault classes are modelled:

* **Node crashes** (:class:`NodeCrash`): fail-stop of a whole multi-GPU
  node at a cluster time — its host and device memory are gone, it stops
  answering heartbeats, and every message to or from it is lost. The
  master detects the silence (heartbeat misses), fences the node, and
  re-slabs the board across survivors from checkpoint replicas.
* **Node repairs** (:class:`NodeRepair`): a crashed or fenced node comes
  back online at a cluster time and announces itself to the master. The
  master runs the elastic-membership probation protocol (DESIGN.md §15):
  after a capped-exponential rejoin backoff the node must answer clean
  heartbeats for ``probation_interval`` before being re-admitted as an
  idle spare, at which point the master's anti-entropy pass re-replicates
  the committed checkpoint generation onto it. A node that keeps
  crash→repair flapping is permanently banned after ``max_flaps`` cycles
  (:class:`~repro.errors.NodeBannedError`). With ``reslab_on_rejoin`` the
  master additionally re-runs the slab decomposition over the enlarged
  survivor set, reusing the rewind+replay recovery ladder, so compute
  capacity actually recovers.
* **Link/NIC transfer faults** (:class:`LinkFault`, or a seeded
  ``link_fault_rate``): the matching inter-node message is lost at send
  time. The master retries with capped-exponential backoff in simulated
  time; a persistently bad link surfaces as
  :class:`~repro.errors.LinkError`.
* **Network partitions** (:class:`Partition`): during the window, only
  nodes in the same group can exchange messages. The head node sits on
  the *largest* group (lowest node id breaking ties), so a partition
  hides the complement from the master; once the failure detector
  declares the isolated minority dead it is **fenced** — excluded so a
  stale minority cannot write back into the board. A fenced node stays
  out until a :class:`NodeRepair` event brings it back through the
  probation protocol; with no repair scheduled, fencing is permanent. A
  partition shorter than the detection latency is absorbed by the
  retry/backoff machinery and causes no recovery at all.
* **Slow links** (:class:`SlowLink`): multiplicative stretch of matching
  messages' durations inside an onset window. Slow links never lose
  messages; like intra-node stragglers they only stretch the timeline
  (and must not change results — asserted by tests).

Determinism: all state lives in the plan (explicit per-link counters plus
one ``random.Random(seed)``), and the master's bulk-synchronous drive
order is itself deterministic, so two runs with equal plans produce
identical fault sequences, identical detection times, identical recovery
actions and identical simulated times.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.sim.faults import FaultPlan
from repro.utils.backoff import capped_backoff
from repro.utils.faultspec import LinkFault, LinkFaultPlan, Window, link_matches


@dataclass(frozen=True)
class NodeCrash:
    """Fail-stop failure of one whole node at a cluster time. Permanent
    unless a later :class:`NodeRepair` brings the node back."""

    node: int
    at_time: float


@dataclass(frozen=True)
class NodeRepair:
    """A crashed or fenced node comes back online at a cluster time.

    The repaired node boots with *empty* memory (its pre-crash slab and
    checkpoint replicas are gone; a fenced node's copies are stale and
    discarded on reboot) and announces itself to the master, which runs
    the probation protocol before re-admitting it as an idle spare. A
    repair scheduled while the node is still up is ignored; alternating
    crash/repair events per node form the node's availability timeline.
    """

    node: int
    at_time: float


@dataclass(frozen=True)
class Partition(Window):
    """The fabric splits into disconnected ``groups`` for a time window.

    Each node sits in at most one of ``groups``; nodes no group names
    form one further, implicit group. Messages between different groups
    are lost while ``start <= t < end``. The head node (master) can
    reach the largest group (lowest member id breaks ties).
    """

    groups: tuple[tuple[int, ...], ...]
    start: float
    end: float

    def group_of(self, node: int) -> int:
        """Index of the group naming ``node``, or -1 for the implicit
        group of unnamed nodes."""
        for i, g in enumerate(self.groups):
            if node in g:
                return i
        return -1


@dataclass(frozen=True)
class SlowLink(Window):
    """Degraded link: matching messages take ``factor`` times longer.

    ``src``/``dst`` of ``None`` match any endpoint; ``start``/``end``
    bound the onset window in cluster seconds (half-open; ``end=None``
    means the link never heals). Factors must be >= 1.
    """

    src: int | None = None
    dst: int | None = None
    factor: float = 1.0
    start: float = 0.0
    end: float | None = None


class ClusterFaultPlan(LinkFaultPlan):
    """A deterministic schedule of cluster faults plus the checkpointer's
    and membership's options (see module docstring).

    Args:
        seed: Seed for the plan's private RNG (used only by
            ``link_fault_rate`` draws).
        node_crashes: Whole-node fail-stop failures.
        node_repairs: Crashed/fenced nodes coming back online (elastic
            membership; see :class:`NodeRepair`).
        link_faults: Targeted transient message losses.
        partitions: Fabric partition windows.
        slow_links: Per-link slowdown factors.
        link_fault_rate: Probability that any sent message is lost
            (drawn from the seeded RNG per send; deterministic because
            send order is).
        checkpoint_interval: Coordinated slab checkpoint period in ticks,
            or ``None`` for no coordinated checkpoints at all (not even
            the tick-0 one): nothing is insured, so any node loss is
            ``ClusterRecoveryError(reason="checkpoint-lost")``. An empty
            plan with checkpoints off is the master's unarmed state.
        checkpoint_replicas: Peer copies of each slab checkpoint (shipped
            to the ``r`` successor nodes in the ring). Default ``None``
            auto-sizes to ``(live_nodes - 1) // 2``, which keeps every
            region recoverable under any minority of simultaneous node
            losses.
        reslab_on_rejoin: After re-admitting a node, re-run the slab
            decomposition over the enlarged survivor set (rewind+replay,
            as in recovery) so the rejoined node carries compute again
            instead of idling as a spare.
        node_plans: Optional per-node intra-node
            :class:`~repro.sim.faults.FaultPlan`s — the inner level of
            the fault hierarchy. Each node's plan is installed on its own
            :class:`~repro.sim.node.SimNode`; an intra-node plan that
            exhausts a node's GPUs escalates to a cluster-level
            :class:`~repro.errors.NodeFailure` (``cause="agent-error"``).

    The retry, failure-detector and rejoin policy is fixed by the class
    attributes below; a plan takes faults, not tunables.
    """

    #: First retry backoff in cluster seconds.
    retry_base = 5e-5
    #: Upper bound on a single backoff interval.
    retry_cap = 2e-3
    #: Retries per message before the master gives up and hands the
    #: endpoint to the failure detector.
    max_retries = 6
    #: How long a sender waits for an ack before counting an attempt as
    #: lost.
    ack_timeout = 2e-4
    #: Master -> node heartbeat period in cluster seconds.
    heartbeat_interval = 5e-4
    #: Ack deadline of a single heartbeat.
    heartbeat_timeout = 2e-4
    #: Consecutive heartbeat misses before a node is declared dead. A
    #: miss is only counted when the node's uplink is idle
    #: (``ClusterNetwork.busy_until``) — a node draining a checkpoint is
    #: busy, not dead.
    miss_threshold = 3
    #: Simulated seconds of clean heartbeats a repaired node must answer
    #: before re-admission.
    probation_interval = 2e-3
    #: First rejoin backoff in cluster seconds — a node's k-th repair
    #: waits ``min(rejoin_base * 2**(k-1), rejoin_cap)`` after announcing
    #: before its probation window starts (flap damping: repeat offenders
    #: wait longer).
    rejoin_base = 5e-4
    #: Upper bound on a single rejoin backoff.
    rejoin_cap = 4e-3
    #: Crash→repair cycles a node may go through before the master
    #: permanently bans it (:class:`~repro.errors.NodeBannedError`).
    max_flaps = 3

    def __init__(
        self,
        seed: int = 0,
        node_crashes: list[NodeCrash] | None = None,
        node_repairs: list[NodeRepair] | None = None,
        link_faults: list[LinkFault] | None = None,
        partitions: list[Partition] | None = None,
        slow_links: list[SlowLink] | None = None,
        link_fault_rate: float = 0.0,
        checkpoint_interval: int | None = 4,
        checkpoint_replicas: int | None = None,
        reslab_on_rejoin: bool = False,
        node_plans: dict[int, FaultPlan] | None = None,
    ):
        self.node_crashes = list(node_crashes or [])
        self.node_repairs = list(node_repairs or [])
        self.link_faults = list(link_faults or [])
        self.partitions = list(partitions or [])
        self.link_fault_rate = float(link_fault_rate)
        self.checkpoint_interval = (
            None if checkpoint_interval is None else int(checkpoint_interval)
        )
        self.checkpoint_replicas = checkpoint_replicas
        self.reslab_on_rejoin = bool(reslab_on_rejoin)
        self.node_plans = dict(node_plans or {})
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 or None")
        super().__init__(seed, self.link_faults, self.link_fault_rate)
        for p in self.partitions:
            named = [n for g in p.groups for n in g]
            if len(set(named)) < len(named):
                raise ValueError(f"partition groups overlap: {p}")
            if len(p.groups) < 2:
                raise ValueError(f"partition needs >= 2 groups: {p}")
            p.check_window()
        self._slow: list[SlowLink] = list(slow_links or [])
        for s in self._slow:
            if s.factor < 1.0:
                raise ValueError(f"slow-link factor must be >= 1, got {s}")
            s.check_window()
        #: Per-node availability timeline: a normalized, time-sorted list
        #: of ``(time, is_crash)`` transitions. Redundant events are
        #: dropped during normalization (a crash while already down, a
        #: repair while already up), so the kept events strictly
        #: alternate crash/repair starting with a crash.
        self._timeline: dict[int, list[tuple[float, bool]]] = {}
        raw: dict[int, list[tuple[float, int]]] = {}
        for c in self.node_crashes:
            raw.setdefault(c.node, []).append((c.at_time, 0))
        for rep in self.node_repairs:
            raw.setdefault(rep.node, []).append((rep.at_time, 1))
        for node, evs in raw.items():
            kept: list[tuple[float, bool]] = []
            up = True
            # At equal times a crash sorts before its repair: the node
            # goes down and comes straight back (memory still lost).
            for t, kind in sorted(evs):
                if kind == 0 and up:
                    kept.append((t, True))
                    up = False
                elif kind == 1 and not up:
                    kept.append((t, False))
                    up = True
            self._timeline[node] = kept
        #: Raw per-node repair times, sorted. Deliberately NOT the
        #: normalized timeline: a node can be *fenced* (partitioned away)
        #: without ever crashing, so its repair event looks like a
        #: repair-while-up to the availability timeline — but the master
        #: must still see it to run the probation protocol. Whether a
        #: repair means anything is the master's membership decision,
        #: not the timeline's.
        self._repairs: dict[int, list[float]] = {}
        for rep in self.node_repairs:
            self._repairs.setdefault(rep.node, []).append(rep.at_time)
        for times in self._repairs.values():
            times.sort()
        #: Diagnostics, also used by `repro.bench --cluster` reports.
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0
        self.messages_retried = 0
        self.nodes_lost = 0
        self.recoveries = 0
        self.checkpoints_taken = 0
        self.nodes_repaired = 0
        self.nodes_readmitted = 0
        self.nodes_banned = 0
        self.probations_failed = 0
        self.replicas_shipped = 0
        self.reslabs = 0

    # -- node crashes / repairs ----------------------------------------------
    def crash_time(self, node: int, now: float | None = None) -> float | None:
        """With ``now`` None: earliest fail-stop time of ``node`` (None if
        it never dies). With ``now``: the crash that started the down
        streak governing ``now`` (the latest crash at or before it), or
        None if the node is up at ``now``."""
        evs = self._timeline.get(node, [])
        if now is None:
            return evs[0][0] if evs else None
        last = None
        for t, is_crash in evs:
            if t > now:
                break
            last = t if is_crash else None
        return last

    def crashed(self, node: int, now: float) -> bool:
        """Whether ``node`` is down (crashed, not yet repaired) at
        cluster time ``now``."""
        return self.crash_time(node, now) is not None

    def crash_in(self, node: int, t0: float, t1: float) -> float | None:
        """Earliest crash of ``node`` in the half-open window
        ``(t0, t1]``, or None. The master calls this with ``t0`` set to
        the node's last (re-)admission time, so a crash *and* repair
        landing inside one tick window is still detected as a loss — a
        rebooted node announces as fresh, it never resumes silently."""
        for t, is_crash in self._timeline.get(node, []):
            if t > t1:
                break
            if is_crash and t > t0:
                return t
        return None

    def repairs_of(self, node: int) -> list[float]:
        """All repair times of ``node``, in order — raw events, not the
        normalized timeline, because a fenced-but-never-crashed node
        (e.g. a partitioned minority) must still be repairable."""
        return self._repairs.get(node, [])

    # -- partitions ----------------------------------------------------------
    def _active_partition(self, now: float) -> Partition | None:
        for p in self.partitions:
            if p.covers(now):
                return p
        return None

    def reachable(self, src: int, dst: int, now: float) -> bool:
        """Whether the fabric can carry ``src -> dst`` at ``now``
        (partitions only; crashes and link faults are separate checks)."""
        if src == dst:
            return True
        p = self._active_partition(now)
        return p is None or p.group_of(src) == p.group_of(dst)

    def master_group(self, nodes: list[int], now: float) -> list[int]:
        """The subset of ``nodes`` the head node can reach at ``now``.

        The head sits on the largest partition group (lowest member id
        breaking ties); with no active partition it reaches everyone.
        """
        p = self._active_partition(now)
        if p is None or not nodes:
            return list(nodes)
        groups: dict[int, list[int]] = {}
        for n in nodes:
            groups.setdefault(p.group_of(n), []).append(n)
        return max(groups.values(), key=lambda ms: (len(ms), -min(ms)))

    # -- slow links ----------------------------------------------------------
    def slow_factor(self, src: int, dst: int, now: float) -> float:
        """Worst active slowdown factor for a ``src -> dst`` message."""
        worst = 1.0
        for s in self._slow:
            if link_matches(s.src, s.dst, src, dst) and s.covers(now):
                worst = max(worst, s.factor)
        return worst

    # -- calm window ---------------------------------------------------------
    def calm_until(self, t: float, members: Mapping[int, float]) -> float:
        """End of the calm window ``[t, end)``: queries at any time in it
        about ``members`` (node -> last admission time) get the
        fault-free answers — :meth:`crash_in` since admission is None,
        :meth:`reachable` is True, :meth:`master_group` is everyone,
        :meth:`slow_factor` is 1 and :meth:`link_fault_now` is False.

        The window ends at the first of a member's first crash after its
        admission (half-open, like ``crash_in``) and the next partition or
        slow-link onset. It is empty (``t`` is returned) while such a
        window covers ``t``, a member's crash already lies at or before
        ``t``, or a link fault is pending. Once no spec is pending,
        ``link_fault_now`` never fires again, so a caller may skip it
        and the counters it would advance: nothing reads them again
        except ``link_faults_pending``, which stays False."""
        if self.link_faults_pending():
            return t
        end = math.inf
        for node, since in members.items():
            for tc, is_crash in self._timeline.get(node, ()):
                if is_crash and tc > since:
                    end = min(end, tc)
                    break
        slow = [s for s in self._slow if s.factor > 1.0]
        for w in (*self.partitions, *slow):
            if w.covers(t):
                return t
            if w.start > t:
                end = min(end, w.start)
        return max(t, end)

    # -- retry policy --------------------------------------------------------
    def rejoin_backoff(self, flap: int) -> float:
        """Cluster-time delay between a node's ``flap``-th repair
        announcement (1-based) and the start of its probation window:
        capped exponential ``min(rejoin_base * 2**(flap-1), rejoin_cap)``
        — repeat offenders wait longer (flap damping)."""
        return capped_backoff(self.rejoin_base, flap, self.rejoin_cap, "flap")

    # -- checkpoint policy ----------------------------------------------------
    def replicas_for(self, live_nodes: int) -> int:
        """Peer-replica count for a checkpoint taken with ``live_nodes``
        survivors: the configured degree, clamped to the ring size, or
        the any-minority-safe default ``(live_nodes - 1) // 2``."""
        if self.checkpoint_replicas is None:
            return max(0, (live_nodes - 1) // 2)
        return max(0, min(int(self.checkpoint_replicas), live_nodes - 1))
