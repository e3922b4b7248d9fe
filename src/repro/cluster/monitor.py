"""Hierarchical Segment Location Monitor — the node level (DESIGN.md §15).

Within a node, each scheduler's :class:`~repro.core.location_monitor.
LocationMonitor` tracks which *device* holds which segment of each datum.
The cluster master needs the same answer one level up: which *node* holds
which rows of the global board, in which role — as the live slab owner or
as a checkpoint replica of a peer's whole slab. :class:`ClusterMonitor`
is that map. It never touches array data; it is pure metadata, consulted
by the master to plan recovery transfers and asserted against by tests.
It records layout, not copies: the slab decomposition and, per checkpoint
region, its rows and owner. Who holds a replica is read from what the
agents store (:meth:`ClusterMonitor.holders`), as ghost replicas follow
from the ring (the master derives who holds a node's edge rows from the
decomposition of the last exchange), so neither record can go stale.

The hierarchy is explicit: :meth:`node_monitor` descends from a node-level
row range to the owning node's intra-node ``LocationMonitor``, read from
the node agent's current scheduler, so a segment query can be resolved
board -> node -> device.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckpointRecord:
    """One region of the current coordinated checkpoint: rows
    ``[lo, hi)`` of the global board at ``tick``, the slab of ``owner``
    at checkpoint time. ``cid`` is the master's monotonic checkpoint id;
    agents store the region under ``(owner, cid)``, and the members that
    do are its holders. The id is distinct from the tick because a
    post-recovery checkpoint re-covers the checkpoint tick with a new
    decomposition."""

    tick: int
    cid: int
    lo: int
    hi: int
    owner: int


class ClusterMonitor:
    """Node-level slab / replica map over the per-node location monitors.

    Args:
        rows, cols: Global board shape.
        radius: Stencil radius (ghost depth).
        itemsize: Bytes per element (for transfer sizing).
        agents: node -> :class:`~repro.cluster.agent.NodeAgent` (the
            master's own map; the lower level of the hierarchy, whose
            stores name the checkpoint holders).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        radius: int,
        itemsize: int,
        agents: dict | None = None,
    ):
        self.rows = rows
        self.cols = cols
        self.radius = radius
        self.itemsize = itemsize
        #: node -> (lo, hi): the live slab decomposition (interior rows).
        self.slabs: dict[int, tuple[int, int]] = {}
        #: node -> "live" | "dead" | "fenced" | "idle" | "probation"
        #: | "banned". Only "live" and "idle" nodes are cluster members
        #: (count toward quorum, serve checkpoint fetches): a node on
        #: probation joins the member set only once admitted, and a
        #: banned node never does.
        self.status: dict[int, str] = {}
        #: Current coordinated checkpoint, one record per region.
        self.checkpoints: list[CheckpointRecord] = []
        self.agents = {} if agents is None else agents

    # -- decomposition --------------------------------------------------------
    def assign(self, nodes: list[int], min_rows: int) -> dict[int, tuple[int, int]]:
        """Contiguous near-even row decomposition over ``nodes`` (in id
        order), each slab at least ``min_rows`` thick.

        If the board is too thin to give every node ``min_rows`` rows,
        trailing nodes are left idle (status ``"idle"``): a 64-row board
        cannot productively occupy 60 nodes. Returns and installs the new
        ``slabs`` map.
        """
        nodes = sorted(nodes)
        k = max(1, min(len(nodes), self.rows // max(1, min_rows)))
        chosen = nodes[:k]
        base, rem = divmod(self.rows, k)
        slabs: dict[int, tuple[int, int]] = {}
        lo = 0
        for i, n in enumerate(chosen):
            hi = lo + base + (1 if i < rem else 0)
            slabs[n] = (lo, hi)
            lo = hi
        self.slabs = slabs
        for n in nodes:
            self.status[n] = "live" if n in slabs else "idle"
        return slabs

    def order(self) -> list[int]:
        """Live slab owners in row order (the exchange ring)."""
        return sorted(self.slabs, key=lambda n: self.slabs[n][0])

    # -- liveness -------------------------------------------------------------
    def live_nodes(self) -> list[int]:
        """Cluster members: slab owners plus idle spares. Nodes that are
        dead, fenced, on probation or banned are excluded — a repaired
        node counts only after the master admits it."""
        return sorted(
            n for n, s in self.status.items() if s in ("live", "idle")
        )

    def mark_dead(self, node: int) -> None:
        self.status[node] = "dead"
        self.slabs.pop(node, None)

    def mark_fenced(self, node: int) -> None:
        self.status[node] = "fenced"
        self.slabs.pop(node, None)

    def mark_probation(self, node: int) -> None:
        """A repaired node announced itself and is proving clean
        heartbeats; not yet a member."""
        self.status[node] = "probation"

    def mark_banned(self, node: int) -> None:
        """Flap-damping: the node exceeded ``max_flaps`` crash→repair
        cycles and is permanently excluded."""
        self.status[node] = "banned"
        self.slabs.pop(node, None)

    def mark_admitted(self, node: int) -> None:
        """Probation passed: the node re-enters the member set as an
        idle spare (it owns a slab again only after the next re-slab)."""
        self.status[node] = "idle"

    # -- checkpoints ----------------------------------------------------------
    def record_checkpoint(
        self,
        tick: int,
        cid: int,
        regions: list[tuple[int, int, int]],
    ) -> None:
        """Replace the coordinated checkpoint: ``regions`` is a list of
        ``(lo, hi, owner)`` covering the board at ``tick``, stored by
        the agents under checkpoint id ``cid``."""
        self.checkpoints = [
            CheckpointRecord(tick, cid, lo, hi, owner)
            for lo, hi, owner in regions
        ]

    def holders(self, rec: CheckpointRecord) -> list[int]:
        """Members whose agent stores ``rec``: the owner's snapshot and
        every replica shipped since, minus nodes that left the member
        set or were rebooted empty."""
        return [
            n
            for n in self.live_nodes()
            if rec.cid in self.agents[n].ckpts.get(rec.owner, ())
        ]

    def replication_deficit(self, degree: int) -> int:
        """Total missing replica slots across the checkpoint, for a
        target of ``degree + 1`` holders per region (owner + ``degree``
        peers), clamped to the member count. Zero means every region is
        back at the configured replication factor — the quantity
        anti-entropy re-replication drives down after a rejoin."""
        want = min(degree + 1, len(self.live_nodes()))
        return sum(
            max(0, want - len(self.holders(rec))) for rec in self.checkpoints
        )

    @property
    def checkpoint_tick(self) -> int:
        """Tick of the current coordinated checkpoint (-1 if none)."""
        return self.checkpoints[0].tick if self.checkpoints else -1

    @property
    def checkpoint_id(self) -> int:
        """Agents' store key of the current checkpoint (-1 if none)."""
        return self.checkpoints[0].cid if self.checkpoints else -1

    def checkpoint_holders(self, lo: int, hi: int) -> list[tuple[int, int, list[int]]]:
        """Resolve rows ``[lo, hi)`` against the checkpoint: a list of
        ``(seg_lo, seg_hi, holders)`` segments. A segment with no
        holder comes back with an empty list — the caller
        decides whether that is fatal."""
        out = []
        for rec in self.checkpoints:
            s_lo, s_hi = max(lo, rec.lo), min(hi, rec.hi)
            if s_lo >= s_hi:
                continue
            out.append((s_lo, s_hi, self.holders(rec)))
        out.sort()
        return out

    def coverage_gap(self, lo: int, hi: int) -> tuple[int, int] | None:
        """First sub-range of ``[lo, hi)`` with no surviving checkpoint
        holder, or None when every row is recoverable."""
        cursor = lo
        for s_lo, s_hi, holders in self.checkpoint_holders(lo, hi):
            if s_lo > cursor:
                return (cursor, s_lo)
            if not holders:
                return (s_lo, s_hi)
            cursor = max(cursor, s_hi)
        if cursor < hi:
            return (cursor, hi)
        return None

    # -- hierarchy ------------------------------------------------------------
    def node_monitor(self, node: int):
        """Descend one level: the intra-node LocationMonitor of ``node``
        (device-level segment locations within that node's slab), or
        None for a node without an agent."""
        agent = self.agents.get(node)
        return None if agent is None else agent.sched.monitor

    def describe(self) -> dict:
        """Snapshot of the hierarchy for observability and tests."""
        return {
            "slabs": dict(self.slabs),
            "status": dict(self.status),
            "checkpoint_tick": self.checkpoint_tick,
            "checkpoints": [
                (r.lo, r.hi, tuple(self.holders(r))) for r in self.checkpoints
            ],
            "nodes_with_monitors": sorted(self.agents),
        }
