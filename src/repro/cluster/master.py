"""The cluster master: a 2-D stencil across multi-GPU nodes, driven by a
fault-tolerant bulk-synchronous loop (paper §8, DESIGN.md §15).

The global board is split into row **slabs**, one per node, each stored
with ``radius`` ghost rows on either side. Within a node the unmodified
MAPS-Multi scheduler partitions the slab across the node's GPUs. Between
ticks each node gathers only its edge rows (``Scheduler.gather_region``)
and ships them over the simulated fabric into its neighbours' ghost rows.
The receiver owes the host-dirty marks of those rows to its next tick,
whose graph launch applies them (region marks of ``Loop.run``), so the
framework re-uploads the rows and no scheduler work runs between ticks.

:class:`ClusterMaster` runs on the head node and owns everything *between*
the nodes: the slab decomposition (via the hierarchical
:class:`~repro.cluster.monitor.ClusterMonitor`), the per-tick command
dispatch to each :class:`~repro.cluster.agent.NodeAgent`, the ghost
exchange over the simulated fabric, heartbeat-based failure detection,
coordinated slab checkpoints, and the recovery ladder. Its drive loop is
deliberately simple::

    while tick < target:
        try:    attempt one bulk-synchronous tick
        except node unreachable: recover (fence, re-slab, roll back)

Everything runs in **simulated cluster time**: retries back off in
simulated seconds, heartbeat misses are counted against the simulated
send schedule, recovery transfers occupy the simulated fabric. The master
always carries a :class:`~repro.cluster.faults.ClusterFaultPlan` and runs
one tick path; the unarmed state (``faults=None``) is an empty plan with
checkpoints off. On it every message is delivered on the first attempt at
the nominal link speed and no checkpoint is taken, so the schedule is the
plain fault-intolerant one, message for message. Between fault-plan
events a tick asks the plan nothing: inside the calm window
(:meth:`ClusterFaultPlan.calm_until`) every crash, reachability,
link-fault and slow-link question has its fault-free answer, and the
full checks run whenever the clock lies outside it. The ghost exchange
itself is planned once per slab decomposition (:class:`_ExchangePlan`).

Recovery (the tentpole protocol):

1. **Detect** — a node stops acking (heartbeat-miss math in
   :meth:`_declared_dead`), crashes mid-compute, lands on the wrong side
   of a partition past the retry budget, or escalates an intra-node
   :class:`~repro.errors.UnrecoverableError`.
2. **Fence** — the typed error is logged as a ``"failure"`` entry, and
   the node is marked dead (crash: host memory poisoned) or fenced
   (partition: intact but excluded until repaired).
3. **Check** — partitions need the master to keep a strict majority;
   every board row needs a surviving checkpoint replica
   (:meth:`ClusterMonitor.coverage_gap`). Otherwise
   :class:`~repro.errors.ClusterRecoveryError`.
4. **Re-slab** — survivors get a fresh near-even decomposition; each new
   slab's rows (interior plus ghosts) are fetched peer-to-peer from
   checkpoint holders over the fabric and rebuilt into fresh schedulers
   restricted to each node's surviving GPUs.
5. **Roll back & replay** — the cluster rewinds to the checkpoint tick
   and replays through the normal drive loop. Functional compute is
   deterministic and decomposition-independent, so the replayed board is
   **bit-identical** to the fault-free run.
6. **Cross-check** — edge rows the dead node had shipped into surviving
   neighbours' ghost regions are compared against the replayed rows once
   the replay re-reaches the failure tick (``"ghost-mismatch"`` if the
   recovered state diverges). The holders are derived from the ring of
   the last completed exchange: a node's upper neighbour holds its top
   edge rows and its lower neighbour its bottom ones.

Elastic membership (when the fault plan schedules
:class:`~repro.cluster.faults.NodeRepair` events): a repaired node
announces itself, waits out a capped-exponential rejoin backoff, then
must answer clean heartbeats for ``probation_interval`` before the
master re-admits it as an idle spare — probationary nodes count toward
quorum and coverage only after admission. Re-admission triggers
anti-entropy re-replication (the committed checkpoint generation is
shipped to the rejoined node until every region is back at the
replication factor), and ``reslab_on_rejoin`` additionally re-runs the
decomposition over the enlarged survivor set through the same
rewind+replay ladder as recovery. A node exceeding ``max_flaps``
crash→repair cycles is permanently banned
(:class:`~repro.errors.NodeBannedError`). With no repair events planned
the membership pass finds nothing to do: no node leaves the ring without
a rollback, so there are no idle spares to sweep or top up, and the
schedule is the repair-free protocol.

The master keeps one event log, :attr:`ClusterMaster.log`: a
:class:`ClusterEvent` per typed failure, membership transition and
recovery resume point, in the order they happen. :attr:`~ClusterMaster.
events` (the typed errors) and :meth:`~ClusterMaster.membership_stats`
are views over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.agent import NodeAgent
from repro.cluster.faults import ClusterFaultPlan
from repro.cluster.monitor import ClusterMonitor
from repro.cluster.network import ClusterNetwork, NetworkCalibration
from repro.core import Kernel
from repro.errors import (
    ClusterRecoveryError,
    LinkError,
    NodeBannedError,
    NodeFailure,
    PartitionError,
    SchedulingError,
    UnrecoverableError,
)
from repro.hardware.specs import GPUSpec
from repro.utils.rect import Rect


#: Log actions that change the member set (counted by
#: :meth:`ClusterMaster.membership_stats`); the log's other actions are
#: ``"failure"`` and ``"resume"``.
MEMBERSHIP_ACTIONS = frozenset({
    "dead", "fence", "repair-announce", "probation-start",
    "probation-fail", "re-admit", "re-replicate", "reslab", "ban",
})


@dataclass(frozen=True)
class ClusterEvent:
    """One entry of the master's event log, stamped with simulated cluster
    time and the master's tick (the last completed one).

    ``action`` is ``"failure"`` (a typed node loss detected during a tick
    attempt, handled by the recovery that follows), ``"resume"`` (that
    recovery rebuilt the cluster and replays from ``tick``; ``node`` is
    None) or one of :data:`MEMBERSHIP_ACTIONS`: ``"dead"`` / ``"fence"``
    (a node leaves the member set), ``"repair-announce"`` (a repaired
    node contacts the master), ``"probation-start"`` /
    ``"probation-fail"``, ``"re-admit"`` (probation passed, node is an
    idle spare again), ``"re-replicate"`` (anti-entropy shipped
    checkpoint regions to the rejoined node), ``"reslab"`` (the
    decomposition was re-run over the enlarged survivor set) or
    ``"ban"`` (flap damping made the exclusion permanent).

    ``error`` is the typed exception of a ``"failure"``, of a ``"dead"``
    idle spare and of a ``"ban"``; its message is the entry's ``detail``,
    so two logs compare equal by value."""

    time: float
    node: int | None
    action: str
    detail: str
    tick: int
    error: Exception | None = field(default=None, compare=False, repr=False)


#: The empty calm window: every fault-plan query takes the full check.
_NO_CALM = (0.0, 0.0)


@dataclass(frozen=True)
class _ExchangePlan:
    """The ghost exchange of one slab decomposition, built when the slabs
    change (:meth:`ClusterMaster._plan_exchange`) and read by every tick
    until the next change."""

    #: Slab owners in row order.
    ring: tuple[int, ...]
    #: Whether the nodes gather their edges: a neighbour or a wrap.
    multi: bool
    #: Bytes of one ghost message (``radius`` rows).
    nbytes: int
    #: ``(src, dst, src_rect, dst_rect, g_lo)`` per message, in send
    #: order: each sender's top edge to its upper neighbour, then its
    #: bottom edge to its lower one. ``g_lo`` is the edge's first global
    #: row; ``src == dst`` is a lone wrapped node's local copy.
    messages: tuple[tuple[int, int, Rect, Rect, int], ...]
    #: ``(node, rect)`` of the global-edge ghosts a non-wrapping board
    #: re-zeroes every tick.
    zeros: tuple[tuple[int, Rect], ...]
    #: node -> per slab buffer, the ``(slab, rect)`` host-dirty marks the
    #: exchange after a tick into that buffer leaves the node owing: its
    #: received ghosts in message order, then its re-zeroed ones. The
    #: tuples are built once, so a node's graph slots compare them by
    #: identity.
    owed: dict[int, tuple[tuple, tuple]]


class _Unreachable(Exception):
    """Internal control flow: one or more nodes were declared lost during
    a tick attempt. Carries the typed public errors; never escapes
    :meth:`ClusterMaster.step`.

    ``nodes`` defaults to the failed nodes of the errors (``NodeFailure``
    only); ``at``, when recovery may start, is the latest of ``after`` and
    the errors' detection times."""

    def __init__(
        self,
        errors: list[NodeFailure | LinkError],
        nodes: list[int] | None = None,
        after: float = 0.0,
    ):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors
        self.nodes = [e.node for e in errors] if nodes is None else nodes
        self.at = max(after, *(e.time for e in errors))


class ClusterMaster:
    """Master/agent execution of a 2-D stencil (Window2D →
    StructuredInjective) across multi-GPU nodes.

    Args:
        spec: GPU model of every node (``node_specs`` overrides per node).
        num_nodes: Number of multi-GPU nodes.
        gpus_per_node: GPUs per node.
        board: Initial global board array (rows divisible by
            ``num_nodes``), or ``(rows, cols)`` for timing-only runs.
        kernel: The per-tick stencil kernel (the same object the
            single-node framework runs).
        radius: Stencil radius (ghost depth).
        functional: Functional vs timing-only per-node simulation.
        network: Fabric calibration.
        wrap: Cyclic (toroidal) row boundary via ring exchange.
        faults: Optional :class:`ClusterFaultPlan`. None stands for
            ``ClusterFaultPlan(checkpoint_interval=None)``: nothing fails
            and nothing is checkpointed, the plain fault-intolerant
            schedule.
        node_specs: Optional per-node GPU spec overrides, e.g. a
            capacity-clamped spec to compose cluster faults with the
            memory-pressure ladder on one node.

    The global boundary condition is ZERO; ``wrap=True`` makes the row
    boundary cyclic through a ring exchange.
    """

    #: Recoveries within one ``step()`` before the master gives up.
    MAX_RECOVERIES_PER_STEP = 16

    def __init__(
        self,
        spec: GPUSpec,
        num_nodes: int,
        gpus_per_node: int,
        board: np.ndarray | tuple[int, int],
        kernel: Kernel,
        radius: int = 1,
        functional: bool = True,
        network: NetworkCalibration | None = None,
        wrap: bool = False,
        faults: ClusterFaultPlan | None = None,
        node_specs: dict[int, GPUSpec] | None = None,
    ):
        if isinstance(board, tuple):
            rows, cols = board
            board_arr = None
            if functional:
                raise SchedulingError(
                    "functional mode requires an actual board"
                )
        else:
            board_arr = np.ascontiguousarray(board)
            rows, cols = board_arr.shape
        if rows % num_nodes != 0:
            raise SchedulingError(
                f"board rows {rows} not divisible by {num_nodes} nodes"
            )
        if rows // num_nodes <= radius:
            raise SchedulingError("slab thinner than the stencil radius")
        self.rows, self.cols = rows, cols
        self.radius = radius
        self.wrap = wrap
        self.num_nodes = num_nodes
        self.kernel = kernel
        self.functional = functional
        if faults is None:
            faults = ClusterFaultPlan(checkpoint_interval=None)
        self.faults: ClusterFaultPlan = faults
        self.network = ClusterNetwork(num_nodes, network)
        #: The event log (see :class:`ClusterEvent`), in the order the
        #: master saw the events.
        self.log: list[ClusterEvent] = []
        #: node -> cluster time of its last (re-)admission: liveness
        #: checks only look at crashes *after* this, so a node that
        #: crashed, was repaired and re-admitted is not re-condemned for
        #: its old crash. -1.0 so a crash at t=0 is still after it.
        self._member_since: dict[int, float] = {
            i: -1.0 for i in range(num_nodes)
        }
        #: node -> crash→repair cycles seen (flap damping).
        self._flaps: dict[int, int] = {}
        #: node -> (announced_at, probation_start, probation_deadline).
        self._probation: dict[int, tuple[float, float, float]] = {}
        #: node -> consumed prefix of its normalized repair events.
        self._repair_idx: dict[int, int] = {}

        specs = node_specs or {}
        self.agents: dict[int, NodeAgent] = {}
        for i in range(num_nodes):
            self.agents[i] = NodeAgent(
                i,
                specs.get(i, spec),
                gpus_per_node,
                cols,
                kernel,
                radius,
                functional,
                faults=faults.node_plans.get(i),
            )
        self.monitor = ClusterMonitor(
            rows, cols, radius, np.dtype(np.int32).itemsize, self.agents
        )
        slabs = self.monitor.assign(
            list(range(num_nodes)), min_rows=radius + 1
        )
        for i, (lo, hi) in slabs.items():
            region = (
                self._board_region(board_arr, lo, hi)
                if board_arr is not None
                else None
            )
            self.agents[i].build(lo, hi, region, which=0)
        self._exchange_plan = self._plan_exchange()
        #: ``[start, end)`` in which every fault-plan query about the
        #: members has its fault-free answer (``calm_until``): set once
        #: per tick after the membership pass, emptied by recovery.
        self._calm = _NO_CALM

        self.tick = 0
        self._target = 0
        #: Master clock = the last barrier time.
        self._clock = 0.0
        #: The last completed ghost exchange: (tick, its exchange plan).
        self._exchanged: tuple[int, _ExchangePlan] | None = None
        #: Pending ghost-replica integrity probes: (tick, lo, hi, data).
        self._ghost_checks: list[tuple[int, int, int, np.ndarray | None]] = []
        if faults.checkpoint_interval is not None:
            # Tick-0 coordinated checkpoint: the initial board is known to
            # the master, so local snapshots are free (no device gather);
            # replica shipping occupies the fabric like any checkpoint.
            self._drive(lambda: self._checkpoint(0, from_host=True))

    # -- initial data ---------------------------------------------------------
    def _board_region(
        self, board: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Extended slab content (ghosts included) for rows [lo, hi)."""
        r = self.radius
        region = np.zeros((hi - lo + 2 * r, self.cols), np.int32)
        region[r : r + (hi - lo)] = board[lo:hi]
        if self.wrap or lo - r >= 0:
            idx = np.arange(lo - r, lo)
            region[:r] = board[idx % self.rows if self.wrap else idx]
        if self.wrap or hi + r <= self.rows:
            idx = np.arange(hi, hi + r)
            region[r + (hi - lo) :] = board[
                idx % self.rows if self.wrap else idx
            ]
        return region

    # -- exchange plan --------------------------------------------------------
    def _plan_exchange(self) -> _ExchangePlan:
        """The exchange plan of the current slabs. Each node's loop checks
        a ghost rect of the plan once, when its mark first joins a run."""
        ring = tuple(self.monitor.order())
        k, r = len(ring), self.radius
        multi = k > 1 or self.wrap
        messages = []
        for pos, n in enumerate(ring if multi else ()):
            ag = self.agents[n]
            for dpos, src_rect, top in (
                (pos - 1, ag.top_edge, True),  # my top edge -> upper
                (pos + 1, ag.bottom_edge, False),  # bottom -> lower
            ):
                if not (self.wrap or 0 <= dpos < k):
                    continue
                j = ring[dpos % k]
                jag = self.agents[j]
                dst_rect = jag.bottom_ghost if top else jag.top_ghost
                g_lo = ag.lo if top else ag.hi - r
                messages.append((n, j, src_rect, dst_rect, g_lo))
        # Global edges have no neighbour: their ghosts are empty space,
        # re-zeroed every tick (the tick wrote stencil outputs there).
        zeros = () if self.wrap else (
            (ring[0], self.agents[ring[0]].top_ghost),
            (ring[-1], self.agents[ring[-1]].bottom_ghost),
        )
        ghosts = [(j, rect) for _, j, _, rect, _ in messages] + list(zeros)
        owed = {}
        for n in ring:
            slabs = self.agents[n].slabs
            owed[n] = tuple(
                tuple((slabs[b], rect) for j, rect in ghosts if j == n)
                for b in range(2)
            )
        return _ExchangePlan(
            ring,
            multi,
            r * self.cols * self.monitor.itemsize,
            tuple(messages),
            zeros,
            owed,
        )

    # -- messaging ------------------------------------------------------------
    def _calm_at(self, t: float) -> bool:
        """Whether ``t`` lies in the calm window, where every fault-plan
        query about a member has its fault-free answer."""
        return self._calm[0] <= t < self._calm[1]

    def _crash_since(self, node: int, t: float) -> float | None:
        """The crash that makes ``node`` lost to the cluster at time
        ``t``: the earliest crash after its last (re-)admission and at or
        before ``t``, or None. Deliberately *not* "is the node up at t" —
        a node that crashed and was repaired within one window still lost
        its memory, so any crash since admission is a loss until the
        membership protocol re-admits it."""
        if self._calm_at(t):
            return None
        return self.faults.crash_in(node, self._member_since[node], t)

    def _reach(self, node: int, t: float) -> float:
        """Deliver a control message (tick command / heartbeat) to
        ``node``, retrying through transient partitions. Control messages
        are metadata-sized and ride the fabric's control plane: delivery
        is free in simulated time, but *failed* delivery costs the ack
        timeout plus backoff per attempt. Returns the delivery time."""
        if self._calm_at(t):
            return t
        fp = self.faults
        t_try = t
        live = self.monitor.order()
        for attempt in range(1, fp.max_retries + 2):
            if self._crash_since(node, t_try) is None and (
                node in fp.master_group(live, t_try)
            ):
                return t_try
            if attempt > fp.max_retries:
                break
            fp.messages_retried += 1
            t_try += fp.ack_timeout + fp.backoff(attempt)
        self._raise_if_crashed(node, t_try)
        raise self._partition_loss(-1, node, t_try, "tick command")

    def _send(
        self, src: int, dst: int, nbytes: int, ready: float, what: str
    ) -> float:
        """One inter-node data message (ghost rows, checkpoint replica,
        recovery fetch) with loss retry. Returns the arrival time."""
        if self._calm_at(ready):
            return self.network.transfer(src, dst, nbytes, ready)
        fp = self.faults
        t_try = ready
        for attempt in range(1, fp.max_retries + 2):
            self._raise_if_crashed(
                src, t_try, f" before sending {what} to {dst}"
            )
            lost = (
                self._crash_since(dst, t_try) is not None
                or not fp.reachable(src, dst, t_try)
                or fp.link_fault_now(src, dst)
            )
            if not lost:
                return self.network.transfer(
                    src,
                    dst,
                    nbytes,
                    t_try,
                    factor=fp.slow_factor(src, dst, t_try),
                )
            if attempt > fp.max_retries:
                t_try += fp.ack_timeout
                break
            fp.messages_retried += 1
            t_try += fp.ack_timeout + fp.backoff(attempt)
        # Retry budget exhausted: classify.
        self._raise_if_crashed(
            dst, t_try, f"; {what} from {src} undeliverable"
        )
        if not fp.reachable(src, dst, t_try):
            raise self._partition_loss(src, dst, t_try, what)
        # Persistently lossy link with both endpoints alive: fail-stop
        # semantics for the receiver — a link that stays bad past the
        # retry budget is indistinguishable from a dead NIC.
        err = LinkError(
            f"{what} {src}->{dst} lost {fp.max_retries + 1} times: "
            f"link/NIC declared faulty, fencing receiver {dst}",
            src=src,
            dst=dst,
            time=t_try,
            attempts=fp.max_retries + 1,
        )
        raise _Unreachable([err], [dst])

    def _raise_if_crashed(
        self, node: int, t: float, where: str = ""
    ) -> None:
        """Raise the loss of ``node`` if it crashed since its last
        (re-)admission and by ``t``; recovery starts no earlier than
        ``t``."""
        t_c = self._crash_since(node, t)
        if t_c is not None:
            raise _Unreachable(
                [self._crash_failure(node, t_c, where)], after=t
            )

    def _crash_failure(
        self, node: int, t_crash: float, where: str = ""
    ) -> NodeFailure:
        """The typed loss of a node that fail-stopped at ``t_crash``,
        stamped with its heartbeat-detection time; ``where`` says what it
        was doing."""
        declared = self._declared_dead(node, t_crash)
        return NodeFailure(
            f"node {node} crashed at t={t_crash:.6f}s{where} "
            f"(declared dead at t={declared:.6f}s)",
            node=node,
            time=declared,
            cause="crash",
        )

    def _partition_loss(
        self, src: int, dst: int, t: float, what: str
    ) -> _Unreachable:
        """A message the fabric partition kept from arriving past the retry
        budget: fence every ring node outside the master's group."""
        fp = self.faults
        live = self.monitor.order()
        isolated = tuple(
            n for n in live if n not in fp.master_group(live, t)
        )
        err = PartitionError(
            f"{what} {src}->{dst} undeliverable: fabric partition "
            f"(fencing nodes {list(isolated)})",
            isolated=isolated,
            src=src,
            dst=dst,
            time=t,
            attempts=fp.max_retries + 1,
        )
        return _Unreachable([err], list(isolated) or [dst])

    def _barrier(self, nodes: list[int], t: float) -> None:
        """Synchronize ``nodes`` and the master clock at cluster time
        ``t``."""
        for n in nodes:
            node = self.agents[n].node
            node.host_advance(max(0.0, t - node.time))
        self._clock = max(self._clock, t)

    def _declared_dead(self, node: int, t_crash: float) -> float:
        """Heartbeat-detection time for a node that fail-stopped at
        ``t_crash``: the first ``miss_threshold`` consecutive heartbeat
        sends after the crash each miss their ack; sends scheduled while
        the node's links are still draining queued transfers
        (:meth:`ClusterNetwork.busy_until`) are skipped rather than
        counted — a node finishing a checkpoint is busy, not dead."""
        fp = self.faults
        h = fp.heartbeat_interval
        t_send = (math.floor(t_crash / h) + 1) * h
        misses = 0
        last = t_send
        while misses < fp.miss_threshold:
            busy = self.network.busy_until(node)
            if busy > t_send:
                t_send = (math.floor(busy / h) + 1) * h
                continue
            misses += 1
            fp.heartbeats_missed += 1
            last = t_send
            t_send += h
        return last + fp.heartbeat_timeout

    # -- the drive loop -------------------------------------------------------
    def step(self) -> None:
        """Advance the cluster by one tick, recovering from any node
        losses encountered on the way (which may involve rolling back to
        the last coordinated checkpoint and replaying)."""
        self._target = self.tick + 1
        self._drive(self._attempt_tick)

    def _drive(self, attempt) -> None:
        """Run ``attempt`` until the target tick is reached, entering the
        recovery ladder on every declared node loss."""
        recoveries = 0
        pending: _Unreachable | None = None
        while True:
            try:
                if pending is not None:
                    u, pending = pending, None
                    # Recovery may itself lose a node (a survivor dies
                    # while serving checkpoint fetches): the nested
                    # _Unreachable lands back here and recovery restarts
                    # against the further-shrunk cluster.
                    self._recover(u)
                    attempt = self._attempt_tick
                else:
                    attempt()
            except _Unreachable as exc:
                recoveries += 1
                if recoveries > self.MAX_RECOVERIES_PER_STEP:
                    raise ClusterRecoveryError(
                        "recovery is thrashing: "
                        f"{recoveries} node losses within one step",
                        reason="thrashing",
                        time=exc.at,
                    ) from exc
                pending = exc
                continue
            if self.tick >= self._target:
                return

    def _attempt_tick(self) -> None:
        """One bulk-synchronous tick: dispatch, compute, exchange,
        barrier, bookkeeping. Raises ``_Unreachable`` on any node loss."""
        fp = self.faults
        # The membership pass may admit a node: it runs the full checks,
        # and the calm window is taken over the members it leaves.
        self._calm = _NO_CALM
        self._membership_tick()
        since = {n: self._member_since[n] for n in self.monitor.live_nodes()}
        self._calm = (self._clock, fp.calm_until(self._clock, since))
        tick = self.tick
        src_i, dst_i = tick % 2, (tick + 1) % 2
        xp = self._exchange_plan
        ring = xp.ring

        # Phase A: dispatch the tick command (reachability check; free on
        # delivery, but transient partitions delay a node's start).
        starts = {n: self._reach(n, self._clock) for n in ring}

        # Phase B: local compute + edge gather per node (own clocks).
        finish: dict[int, float] = {}
        lost: list[NodeFailure] = []
        for n in ring:
            ag = self.agents[n]
            ag.node.host_advance(max(0.0, starts[n] - ag.node.time))
            try:
                t_f = ag.compute(src_i, xp.multi, xp.owed[n])
            except UnrecoverableError as e:
                err = NodeFailure(
                    f"node {n} reported intra-node recovery exhausted: {e}",
                    node=n,
                    time=ag.node.time,
                    cause="agent-error",
                )
                raise _Unreachable([err]) from e
            t_c = self._crash_since(n, t_f)
            if t_c is not None:
                lost.append(self._crash_failure(n, t_c, " mid-compute"))
            else:
                finish[n] = t_f
        if lost:
            raise _Unreachable(lost)

        # Phase C: ghost exchange over the fabric. Each receiver owes the
        # host-dirty marks of its new ghost rows to its next tick (the
        # exchange plan's ``owed``); the rows themselves are host data,
        # copied in functional mode only.
        done = dict(finish)
        for n, j, _, _, _ in xp.messages:
            if j != n:
                arrival = self._send(n, j, xp.nbytes, finish[n], "ghost")
                done[j] = max(done[j], arrival)
        if self.functional:
            for n, j, src_rect, dst_rect, _ in xp.messages:
                self.agents[j].write_ghost(
                    dst_i, dst_rect, self.agents[n].edge_data(dst_i, src_rect)
                )
            for n, rect in xp.zeros:
                self.agents[n].write_ghost(dst_i, rect, 0)

        # Phase D: barrier + liveness sweep.
        barrier = max(done.values()) if done else self._clock
        for n in ring:
            self._raise_if_crashed(n, barrier, " during the exchange window")
        fp.heartbeats_sent += len(ring)
        self._barrier(ring, barrier)
        self.tick = tick + 1
        self._exchanged = (self.tick, xp)
        self._run_ghost_checks()
        every = fp.checkpoint_interval
        if every is not None and self.tick % every == 0:
            self._checkpoint(self.tick, from_host=False)

    def run(self, ticks: int) -> float:
        """Run ``ticks`` steps; returns the cluster time afterwards."""
        for _ in range(ticks):
            self.step()
        return self.time

    @property
    def time(self) -> float:
        live = self.monitor.live_nodes()
        times = [self.agents[n].node.time for n in live]
        return max([self._clock, *times])

    # -- checkpoints ----------------------------------------------------------
    def _checkpoint(self, tick: int, from_host: bool) -> None:
        """Coordinated slab checkpoint at ``tick``: every slab owner
        snapshots its interior (device gather unless the host image is
        already the freshest copy) and ships replicas to its ring
        successors; the monitor records the regions atomically at the
        end, so a failure mid-checkpoint leaves the previous checkpoint
        intact and consistent."""
        fp = self.faults
        which = tick % 2
        cid = max(self.monitor.checkpoint_id, 0) + 1
        ring = self.monitor.order()
        deg = fp.replicas_for(len(ring))
        members = self.monitor.live_nodes()
        # A failed attempt may have stored this id already: drop it, so
        # the holders of the commit are exactly the nodes written below.
        for n in members:
            self.agents[n].prune_ckpts(cid - 1)
        # (owner, its snapshot (lo, hi, data), how many nodes hold it)
        placed: list[tuple[int, tuple[int, int, np.ndarray | None], int]] = []
        t_done = self._clock
        for pos, n in enumerate(ring):
            ag = self.agents[n]
            if from_host:
                ag.snapshot_from_host(cid, which)
                t_local = max(self._clock, ag.node.time)
            else:
                t_local = ag.checkpoint_local(cid, which)
            snap = ag.ckpts[n][cid]
            held = 1
            for k in range(1, deg + 1):
                peer = ring[(pos + k) % len(ring)]
                if peer == n:
                    break
                arrival = self._ship_replica(
                    n, peer, n, cid, snap, t_local, "checkpoint"
                )
                held += 1
                t_done = max(t_done, arrival)
            t_done = max(t_done, t_local)
            placed.append((n, snap, held))
        # Elastic membership: re-admitted spares own no slab but can
        # carry checkpoint replicas — top each region up toward deg+1
        # holders so the replication factor does not stay eroded while
        # the ring is short-handed. Without repairs there are no spares.
        spares = [m for m in members if m not in self.monitor.slabs]
        deg_all = fp.replicas_for(len(members))
        base = t_done
        for owner, snap, held in placed:
            for m in spares[: max(0, deg_all + 1 - held)]:
                arrival = self._ship_replica(
                    owner, m, owner, cid, snap, base, "checkpoint"
                )
                fp.replicas_shipped += 1
                t_done = max(t_done, arrival)
        # Commit atomically: a failure anywhere above leaves the previous
        # checkpoint's records and stores untouched (uncommitted cid
        # entries in agent stores are pruned at the next attempt).
        self.monitor.record_checkpoint(
            tick, cid, [(lo, hi, owner) for owner, (lo, hi, _), _ in placed]
        )
        for n in members:
            self.agents[n].prune_ckpts(cid)
        fp.checkpoints_taken += 1
        # The checkpoint is itself a barrier.
        self._barrier(members, t_done)

    def _ship_replica(
        self,
        src: int,
        dst: int,
        owner: int,
        cid: int,
        snap: tuple[int, int, np.ndarray | None],
        ready: float,
        what: str,
    ) -> float:
        """Ship checkpoint generation ``cid`` of ``owner``'s rows
        ``snap = (lo, hi, data)`` from ``src`` to ``dst`` and store the
        replica there. Returns the arrival time."""
        lo, hi, data = snap
        nbytes = (hi - lo) * self.cols * self.monitor.itemsize
        arrival = self._send(src, dst, nbytes, ready, what)
        self.agents[dst].store_ckpt(owner, cid, lo, hi, data)
        return arrival

    # -- the event log --------------------------------------------------------
    def _log(
        self,
        time: float,
        node: int | None,
        action: str,
        detail: str = "",
        error: Exception | None = None,
    ) -> None:
        """Append one entry stamped with the current tick; an error's
        message is its detail."""
        if error is not None:
            detail = str(error)
        self.log.append(
            ClusterEvent(time, node, action, detail, self.tick, error)
        )

    @property
    def events(self) -> list[Exception]:
        """The typed errors of the log, in detection order."""
        return [e.error for e in self.log if e.error is not None]

    def membership_stats(self) -> dict:
        """Per-action counts over the log's membership transitions, plus
        the current status map."""
        counts: dict[str, int] = {}
        for ev in self.log:
            if ev.action in MEMBERSHIP_ACTIONS:
                counts[ev.action] = counts.get(ev.action, 0) + 1
        return {
            "events": sum(counts.values()),
            "actions": counts,
            "status": dict(self.monitor.status),
        }

    # -- elastic membership ---------------------------------------------------
    def _membership_tick(self) -> None:
        """Drive the membership state machine up to the master clock:
        sweep crashed spares, process due repair announcements, and
        resolve expired probation windows. Runs every tick; on a plan
        with no repair events there are no spares, announcements or
        probations, so it changes nothing (the zero-overhead
        invariant)."""
        now = self._clock
        self._sweep_spares(now)
        progressed = True
        while progressed:
            # A failed probation can unblock a queued repair event (the
            # node crashed and was repaired again mid-probation), and an
            # announcement whose backoff+probation already expired
            # resolves in the same pass — iterate to a fixed point.
            progressed = self._check_probations(now)
            progressed = self._check_repairs(now) or progressed

    def _sweep_spares(self, now: float) -> None:
        """Failure detection for idle spares: they are not in the ring,
        so the per-tick barrier sweep never sees them — check their
        heartbeat silence here. Losing a spare needs no rollback (it owns
        no slab); it just leaves the member set again."""
        fp = self.faults
        for n in sorted(self.monitor.status):
            if self.monitor.status[n] != "idle" or n in self.monitor.slabs:
                continue
            t_c = self._crash_since(n, now)
            if t_c is None:
                continue
            err = self._crash_failure(n, t_c, " as an idle spare")
            if err.time > now:
                continue  # silence not yet long enough to declare
            self.monitor.mark_dead(n)
            self.agents[n].crash(t_c)
            fp.nodes_lost += 1
            self._log(err.time, n, "dead", error=err)

    def _check_repairs(self, now: float) -> bool:
        """Process repair announcements due by ``now``; returns whether
        any membership state changed."""
        fp = self.faults
        changed = False
        for n in sorted(self.agents):
            reps = fp.repairs_of(n)
            i = self._repair_idx.get(n, 0)
            while i < len(reps) and reps[i] <= now:
                status = self.monitor.status.get(n)
                if status in ("dead", "fenced"):
                    self._announce(n, reps[i], now)
                    changed = True
                    i += 1
                elif status == "probation":
                    # The node crashed and was repaired again while on
                    # probation; the crash fails the current window
                    # first, then this repair re-announces.
                    break
                else:
                    # Already a member (stale repair) or banned: consume.
                    if status == "banned":
                        self._log(
                            reps[i], n, "repair-announce", "ignored: banned"
                        )
                    i += 1
            self._repair_idx[n] = i
        return changed

    def _announce(self, node: int, t_repair: float, now: float) -> None:
        """A repaired node contacted the master: count the flap, ban a
        repeat offender, otherwise schedule its probation window after
        the rejoin backoff."""
        fp = self.faults
        fp.nodes_repaired += 1
        self._flaps[node] = self._flaps.get(node, 0) + 1
        flaps = self._flaps[node]
        self._log(t_repair, node, "repair-announce", f"flap {flaps}")
        if flaps > fp.max_flaps:
            self.monitor.mark_banned(node)
            fp.nodes_banned += 1
            t_ban = max(now, t_repair)
            err = NodeBannedError(
                f"node {node} exceeded max_flaps={fp.max_flaps} "
                f"crash→repair cycles: permanently banned at "
                f"t={t_ban:.6f}s",
                node=node,
                time=t_ban,
                flaps=flaps,
            )
            self._log(t_ban, node, "ban", error=err)
            return
        start = max(now, t_repair) + fp.rejoin_backoff(flaps)
        deadline = start + fp.probation_interval
        self._probation[node] = (t_repair, start, deadline)
        self.monitor.mark_probation(node)
        self._log(
            start, node, "probation-start",
            f"clean heartbeats until t={deadline:.6f}s",
        )

    def _check_probations(self, now: float) -> bool:
        """Resolve probation windows that expired by ``now``; returns
        whether any membership state changed."""
        fp = self.faults
        changed = False
        for n in sorted(self._probation):
            announced, start, deadline = self._probation[n]
            if deadline > now:
                continue
            del self._probation[n]
            changed = True
            verdict = self._probation_verdict(n, announced, start, deadline)
            if verdict is None:
                self._admit(n, max(now, deadline))
                continue
            cause, detail = verdict
            fp.probations_failed += 1
            if cause == "crash":
                # Back to dead; the node rejoins only via its *next*
                # repair event (picked up by _check_repairs).
                self.monitor.mark_dead(n)
            else:
                self.monitor.mark_fenced(n)
            self._log(deadline, n, "probation-fail", detail)
        return changed

    def _probation_verdict(
        self, node: int, announced: float, start: float, deadline: float
    ) -> tuple[str, str] | None:
        """Judge a completed probation window: None for a clean pass,
        else ``(cause, detail)``. The node must not have crashed since
        the repair that announced it, and must answer every heartbeat
        probe in ``[start, deadline)``."""
        fp = self.faults
        t_c = fp.crash_in(node, announced, deadline)
        if t_c is None and fp.crashed(node, deadline):
            # Crashed before the window even opened and never came back.
            t_c = fp.crash_time(node, deadline)
        if t_c is not None:
            return ("crash", f"crashed at t={t_c:.6f}s during probation")
        peers = self.monitor.live_nodes()
        h = fp.heartbeat_interval
        t = start
        while t < deadline:
            fp.heartbeats_sent += 1
            if node not in fp.master_group(peers + [node], t):
                fp.heartbeats_missed += 1
                return (
                    "unreachable",
                    f"probe unanswered at t={t:.6f}s (partitioned)",
                )
            t += h
        return None

    def _admit(self, node: int, t: float) -> None:
        """Probation passed: reboot the agent, re-admit the node as an
        idle spare, and run the anti-entropy re-replication pass (plus
        the optional re-slab)."""
        fp = self.faults
        ag = self.agents[node]
        ag.revive(t)
        self.monitor.mark_admitted(node)
        self._member_since[node] = t
        fp.nodes_readmitted += 1
        self._log(t, node, "re-admit", "idle spare after clean probation")
        t_done = self._re_replicate(node, t)
        if fp.reslab_on_rejoin:
            fp.reslabs += 1
            self._log(
                t_done, node, "reslab",
                "re-running the decomposition over the enlarged survivor set",
            )
            self._rebuild_from_checkpoint(t_done)

    def _re_replicate(self, node: int, t: float) -> float:
        """Anti-entropy: ship every under-replicated region of the
        committed checkpoint generation to the rejoined node until each
        is back at the replication factor (owner + ``deg`` peers).
        The degree is computed over the *member* count — the rejoined
        spare raises it back toward the configured factor that a
        short-handed ring could not reach. Treated as a barrier — the
        spare and its sources sync at the last arrival. Returns that
        time."""
        fp = self.faults
        deg = fp.replicas_for(len(self.monitor.live_nodes()))
        t_done = t
        shipped = 0
        for rec in self.monitor.checkpoints:
            holders = self.monitor.holders(rec)
            if node in holders or len(holders) > deg or not holders:
                continue
            src = min(holders)
            data = self.agents[src].checkpoint_rows(rec.cid, rec.lo, rec.hi)
            arrival = self._ship_replica(
                src, node, rec.owner, rec.cid,
                (rec.lo, rec.hi, data), t, "re-replicate",
            )
            fp.replicas_shipped += 1
            shipped += 1
            t_done = max(t_done, arrival)
        self._barrier(self.monitor.live_nodes(), t_done)
        if shipped:
            self._log(
                t_done, node, "re-replicate",
                f"{shipped} checkpoint region(s)",
            )
        return t_done

    # -- recovery -------------------------------------------------------------
    def _recover(self, u: _Unreachable) -> None:
        """The recovery ladder (module docstring steps 2-5)."""
        self._calm = _NO_CALM
        fp = self.faults
        now = max(self._clock, u.at)
        pre_live = self.monitor.live_nodes()
        old_slabs = dict(self.monitor.slabs)
        for e in u.errors:
            node = e.node if isinstance(e, NodeFailure) else e.dst
            self._log(e.time, node, "failure", error=e)

        # Partitions must leave the master a strict majority; otherwise
        # fencing would resolve a split-brain by fiat.
        if any(isinstance(e, PartitionError) for e in u.errors):
            survivors = [n for n in pre_live if n not in u.nodes]
            if 2 * len(survivors) <= len(pre_live):
                raise ClusterRecoveryError(
                    f"partition left the master with {len(survivors)} of "
                    f"{len(pre_live)} nodes: no strict majority",
                    reason="no-quorum",
                    time=now,
                ) from u.errors[0]

        causes: dict[int, str] = {}
        for e in u.errors:
            if isinstance(e, NodeFailure):
                causes[e.node] = e.cause
        for n in dict.fromkeys(u.nodes):
            cause = causes.get(n)
            if cause in ("crash", "agent-error"):
                self.monitor.mark_dead(n)
                t_c = (
                    self._crash_since(n, now) if cause == "crash" else None
                )
                self.agents[n].crash(now if t_c is None else t_c)
                self._log(now, n, "dead", f"cause={cause}")
            else:  # partition / faulty link: intact but excluded
                self.monitor.mark_fenced(n)
                self._log(now, n, "fence", f"cause={cause}")
            fp.nodes_lost += 1
        fp.recoveries += 1

        live = self.monitor.live_nodes()
        if not live:
            raise ClusterRecoveryError(
                "no surviving nodes",
                reason="no-survivors",
                time=now,
            ) from u.errors[0]
        if self.monitor.checkpoint_tick < 0:
            # A node died before its slab's first replica shipped.
            raise ClusterRecoveryError(
                "node lost before the first coordinated checkpoint",
                reason="checkpoint-lost",
                time=now,
            ) from u.errors[0]
        gap = self.monitor.coverage_gap(0, self.rows)
        if gap is not None:
            raise ClusterRecoveryError(
                f"rows [{gap[0]}, {gap[1]}) have no surviving checkpoint "
                "replica",
                reason="checkpoint-lost",
                time=now,
            ) from u.errors[0]

        # Save surviving neighbours' ghost copies of the dead nodes' edge
        # rows, as of the exchange that completed the last tick T, for
        # the post-replay integrity cross-check.
        T = self.tick
        for n in dict.fromkeys(u.nodes):
            rng = old_slabs.get(n)
            if rng is None:
                continue
            for holder, g_lo, g_hi in self._ghost_copies(T, *rng):
                data = self.agents[holder].read_rows(T % 2, g_lo, g_hi)
                self._ghost_checks.append((T, g_lo, g_hi, data))

        # Re-slab across survivors and rebuild from checkpoint replicas,
        # fetching each new slab's rows peer-to-peer over the fabric.
        self._rebuild_from_checkpoint(now)
        self._log(self._clock, None, "resume")

    def _rebuild_from_checkpoint(self, now: float) -> None:
        """Re-slab across the current member set (recovery steps 4-5,
        also the ``reslab_on_rejoin`` path): fresh near-even
        decomposition, each new slab's rows (interior plus ghosts)
        fetched peer-to-peer from checkpoint holders and rebuilt, then
        roll back to the checkpoint tick and take a fresh coordinated
        checkpoint over the new decomposition — the drive loop replays
        from there, bit-identically."""
        live = self.monitor.live_nodes()
        C = self.monitor.checkpoint_tick
        cid = self.monitor.checkpoint_id
        new_slabs = self.monitor.assign(live, min_rows=self.radius + 1)
        which = C % 2
        t_done = now
        r = self.radius
        for n in self.monitor.order():
            lo, hi = new_slabs[n]
            ext = hi - lo + 2 * r
            region = (
                np.zeros((ext, self.cols), np.int32)
                if self.functional
                else None
            )
            for a, b in ((lo - r, lo), (lo, hi), (hi, hi + r)):
                t_done = max(
                    t_done,
                    self._fetch_rows(n, a, b, lo, region, cid, now),
                )
            try:
                self.agents[n].rebuild(lo, hi, region, which)
            except UnrecoverableError as e:
                err = NodeFailure(
                    f"node {n} cannot rebuild: {e}",
                    node=n,
                    time=t_done,
                    cause="agent-error",
                )
                raise _Unreachable([err]) from e
        self._exchange_plan = self._plan_exchange()

        self._barrier(live, t_done)
        # Roll back to the checkpoint; the drive loop replays from here.
        self.tick = C
        # Fresh coordinated checkpoint over the new decomposition, so a
        # subsequent failure (down to a single survivor) recovers again.
        self._checkpoint(C, from_host=True)

    def _fetch_rows(
        self,
        n: int,
        v_lo: int,
        v_hi: int,
        slab_lo: int,
        region: np.ndarray | None,
        ckpt_cid: int,
        ready: float,
    ) -> float:
        """Fetch virtual board rows ``[v_lo, v_hi)`` of the checkpoint
        into node ``n``'s extended region (wrap-aware; rows outside a
        non-wrapping board stay zero). Returns the last arrival time."""
        t_done = ready
        r = self.radius
        # Maximal runs of consecutive in-range board rows (virtual rows
        # wrap modularly on a toroidal board, stay zero otherwise).
        runs: list[tuple[int, int, int]] = []  # (g_lo, g_hi, dest)
        v = v_lo
        while v < v_hi:
            if self.wrap:
                g = v % self.rows
                span = min(v_hi - v, self.rows - g)
                runs.append((g, g + span, v - slab_lo + r))
                v += span
            elif v < 0:
                v = min(0, v_hi)
            elif v >= self.rows:
                break
            else:
                g_hi = min(v_hi, self.rows)
                runs.append((v, g_hi, v - slab_lo + r))
                v = g_hi
        for g_lo, g_hi, dest0 in runs:
            for s_lo, s_hi, holders in self.monitor.checkpoint_holders(
                g_lo, g_hi
            ):
                if not holders:  # pragma: no cover - coverage pre-checked
                    raise ClusterRecoveryError(
                        f"rows [{s_lo}, {s_hi}) lost",
                        reason="checkpoint-lost",
                        time=ready,
                    )
                holder = n if n in holders else min(holders)
                if holder != n:
                    t_done = max(
                        t_done,
                        self._send(
                            holder,
                            n,
                            (s_hi - s_lo) * self.cols * self.monitor.itemsize,
                            ready,
                            "recover",
                        ),
                    )
                data = self.agents[holder].checkpoint_rows(
                    ckpt_cid, s_lo, s_hi
                )
                if region is not None and data is not None:
                    dest = dest0 + (s_lo - g_lo)
                    region[dest : dest + (s_hi - s_lo)] = data
        return t_done

    # -- ghost integrity cross-check ------------------------------------------
    def _ghost_copies(
        self, tick: int, lo: int, hi: int
    ) -> list[tuple[int, int, int]]:
        """``(holder, g_lo, g_hi)`` for every ghost copy of rows in
        ``[lo, hi)`` that a member still holds from the exchange that
        completed ``tick``: the receivers of that exchange plan's
        messages, in send order (each sender's upper neighbour holds its
        top edge, then its lower neighbour its bottom edge). A lone
        wrapped node's local copy has no other holder."""
        if self._exchanged is None or self._exchanged[0] != tick:
            return []
        r = self.radius
        return [
            (j, g_lo, g_lo + r)
            for n, j, _, _, g_lo in self._exchanged[1].messages
            if j != n
            and g_lo < hi
            and g_lo + r > lo
            and self.monitor.status.get(j) in ("live", "idle")
        ]

    def _run_ghost_checks(self) -> None:
        """When the replay re-reaches the failure tick, compare the
        recomputed rows against the ghost copies surviving neighbours
        held of the dead nodes' edges. The gathers run (and cost
        simulated time) in both modes; the comparison is functional."""
        due = [c for c in self._ghost_checks if c[0] == self.tick]
        if not due:
            return
        self._ghost_checks = [
            c for c in self._ghost_checks if c[0] > self.tick
        ]
        which = self.tick % 2
        for _, g_lo, g_hi, expected in due:
            for n in self.monitor.order():
                lo, hi = self.monitor.slabs[n]
                s_lo, s_hi = max(g_lo, lo), min(g_hi, hi)
                if s_lo >= s_hi:
                    continue
                ag = self.agents[n]
                ag.gather_rows(which, s_lo, s_hi)
                if expected is None or not self.functional:
                    continue
                got = ag.read_rows(which, s_lo, s_hi)
                want = expected[s_lo - g_lo : s_hi - g_lo]
                if not np.array_equal(got, want):
                    raise ClusterRecoveryError(
                        f"replayed rows [{s_lo}, {s_hi}) at tick "
                        f"{self.tick} diverge from the ghost replicas "
                        "surviving neighbours held of the failed node's "
                        "edges",
                        reason="ghost-mismatch",
                        time=self._clock,
                    )

    # -- results --------------------------------------------------------------
    def board(self) -> np.ndarray:
        """Gather and assemble the current global board (functional)."""
        if not self.functional:
            raise SchedulingError("board() requires functional mode")
        which = self.tick % 2
        out = np.zeros((self.rows, self.cols), np.int32)
        for n in self.monitor.order():
            lo, hi = self.monitor.slabs[n]
            ag = self.agents[n]
            ag.gather_rows(which, lo, hi)
            out[lo:hi] = ag.slabs[which].host[
                self.radius : self.radius + (hi - lo)
            ]
        return out
