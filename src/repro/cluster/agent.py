"""Per-node agent for the fault-tolerant cluster (DESIGN.md §15).

A :class:`NodeAgent` is the cluster master's deputy on one simulated
multi-GPU node: it owns the node's :class:`~repro.sim.node.SimNode`, the
MAPS-Multi :class:`~repro.core.scheduler.Scheduler` driving it, and the
node's double-buffered board slab. The agent executes the master's
commands — run one tick, gather edge rows, snapshot a checkpoint, store a
peer's checkpoint replica, rebuild onto a new slab range after recovery,
reboot with empty stores after a repair event — while everything
*between* nodes (messages, heartbeats, failure detection, re-slabbing,
probation) stays in :class:`~repro.cluster.master.ClusterMaster`.

Fault domains compose hierarchically here: an agent's node may carry its
own intra-node :class:`~repro.sim.faults.FaultPlan` (device failures,
stragglers, memory pressure — DESIGN.md §8/§10/§11), which the per-node
scheduler absorbs exactly as on a standalone node. Only when intra-node
recovery is exhausted (:class:`~repro.errors.UnrecoverableError` — every
GPU in the node retired) does the failure escalate to the cluster level,
surfacing as a :class:`~repro.errors.NodeFailure` with
``cause="agent-error"``.
"""

from __future__ import annotations

import numpy as np

from repro.core import Grid, Kernel, Matrix, Scheduler
from repro.core.datum import Datum
from repro.core.graph import Call, Loop
from repro.hardware.specs import GPUSpec
from repro.patterns import ZERO, StructuredInjective, Window2D
from repro.sim.faults import FaultPlan
from repro.sim.node import SimNode
from repro.utils.rect import Rect

#: int32 fill pattern written over a crashed node's host memory: any
#: recovery path that silently reads a dead node would produce boards
#: full of this value and fail the bit-identity asserts.
POISON = np.int32(-559038737)  # 0xDEADBEEF


class NodeAgent:
    """One node's slab executor (see module docstring).

    Args:
        node_id: Cluster-wide node index.
        spec: GPU model of this node's devices.
        gpus_per_node: Device count.
        cols: Global board width.
        kernel: The per-tick stencil kernel.
        radius: Stencil radius (ghost depth).
        functional: Functional vs timing-only simulation.
        faults: Optional intra-node fault plan (the inner fault domain).
    """

    def __init__(
        self,
        node_id: int,
        spec: GPUSpec,
        gpus_per_node: int,
        cols: int,
        kernel: Kernel,
        radius: int,
        functional: bool,
        faults: FaultPlan | None = None,
    ):
        self.node_id = node_id
        self.spec = spec
        self.gpus_per_node = gpus_per_node
        self.cols = cols
        self.kernel = kernel
        self.radius = radius
        self.functional = functional
        self.fault_plan = faults
        self.node = SimNode(
            spec, gpus_per_node, functional=functional, faults=faults
        )
        self.sched = Scheduler(self.node)
        #: Interior row range [lo, hi) of the global board (no slab yet).
        self.lo = 0
        self.hi = 0
        #: Double-buffered slab datums (ext = hi - lo + 2 * radius rows).
        self.slabs: list[Datum] | None = None
        # Per-slab tick geometry, computed once by build() and cleared by
        # revive(): a steady tick only reads these fields.
        #: Interior rows (the slab's own, the only rows a host read
        #: gathers), edge rows (sent to the neighbours) and ghost rows
        #: (received from them), in slab coordinates of the current range.
        self.interior: Rect | None = None
        self.top_edge: Rect | None = None
        self.bottom_edge: Rect | None = None
        self.top_ghost: Rect | None = None
        self.bottom_ghost: Rect | None = None
        #: The ping-pong on the current scheduler: ``loop.calls[i]`` is
        #: the tick reading ``slabs[i]`` and writing the other buffer, on
        #: one thread per extended-slab cell. One single-tick graph per
        #: parity (DESIGN.md §15).
        self.loop: Loop | None = None
        #: ``(slab, ghost rect)`` host-dirty marks the last exchange left
        #: owed, in exchange order: the next tick's launch applies them.
        #: Nothing else needs them first, because host reads gather
        #: interior rows only (:meth:`gather_rows`).
        self.owed: tuple[tuple[Datum, Rect], ...] = ()
        #: Generation counter: bumped on every (re)build, names the datums.
        self.generation = 0
        #: owner -> {checkpoint id -> (lo, hi, interior snapshot)}: this
        #: node's own snapshots under its own id, peers' replicas under
        #: theirs. Keyed by the master's monotonic checkpoint id, not the
        #: tick: a post-recovery checkpoint re-covers the same tick with
        #: a new decomposition and must not clobber the committed one.
        #: The cluster monitor reads checkpoint holders from here.
        self.ckpts: dict[int, dict[int, tuple[int, int, np.ndarray | None]]] = {}

    # -- build / rebuild ------------------------------------------------------
    def build(
        self,
        lo: int,
        hi: int,
        region: np.ndarray | None,
        which: int,
    ) -> None:
        """Create and analyze the double-buffered slab for rows
        ``[lo, hi)`` and compute its tick geometry. ``region`` is the
        *extended* initial content (interior plus ghost rows,
        ``hi - lo + 2*radius`` tall) loaded into buffer ``which``; None
        in timing-only mode."""
        self.lo, self.hi = lo, hi
        self.generation += 1
        self.owed = ()
        r, s, cols = self.radius, hi - lo, self.cols
        ext = s + 2 * r
        self.interior = Rect((r, r + s), (0, cols))
        self.top_edge = Rect((r, 2 * r), (0, cols))
        self.bottom_edge = Rect((s, s + r), (0, cols))
        self.top_ghost = Rect((0, r), (0, cols))
        self.bottom_ghost = Rect((s + r, s + 2 * r), (0, cols))
        pair: list[Datum] = []
        for buf in range(2):
            d = Matrix(
                ext,
                self.cols,
                np.int32,
                f"slab{self.node_id}.g{self.generation}.{buf}",
            )
            if self.functional:
                backing = np.zeros((ext, self.cols), np.int32)
                if buf == which and region is not None:
                    backing[:] = region
                d.bind(backing)
            pair.append(d)
        self.slabs = pair
        grid = Grid((ext, self.cols))
        self.loop = Loop.declare(self.sched, (
            Call(
                self.kernel,
                (Window2D(pair[a], r, ZERO), StructuredInjective(pair[b])),
                grid,
            )
            for a, b in ((0, 1), (1, 0))
        ))

    def rebuild(
        self,
        lo: int,
        hi: int,
        region: np.ndarray | None,
        which: int,
    ) -> None:
        """Re-slab after cluster recovery: tear the old scheduler down
        (freeing every device buffer) and build a fresh one restricted to
        the node's surviving devices — the intra-node fault domain
        persists across the rebuild, mirroring the lease machinery of
        DESIGN.md §13: GPUs this node already lost stay lost, faults that
        already fired do not fire again."""
        self.sched.release()
        now = self.node.time
        alive = tuple(
            d.index
            for d in self.node.devices
            if self.node.engine.dead.get(d.index, float("inf")) > now
        )
        self.sched = Scheduler(self.node, devices=alive)
        self.build(lo, hi, region, which)

    # -- tick execution -------------------------------------------------------
    def compute(
        self, src_i: int, gather_edges: bool, owed: tuple = ((), ())
    ) -> float:
        """Run one stencil tick from ``slabs[src_i]`` into the other
        buffer and (when the slab has cluster neighbours) gather the
        freshly computed edge rows to the host for the exchange phase.
        Returns the node time at completion. A steady tick is one launch
        of its parity's graph (``Loop.run``); intra-node faults are
        recovered inside the eager fallback's ``wait_all``, and an
        exhausted node raises UnrecoverableError to the master.

        ``owed[b]`` are the ghost marks the exchange after a tick into
        ``slabs[b]`` leaves on it (the master's exchange plan keeps one
        constant tuple per buffer): the marks owed now join this tick's
        launch, and the exchange after it leaves ``owed[1 - src_i]``."""
        edges = (self.top_edge, self.bottom_edge) if gather_edges else ()
        marks, self.owed = self.owed, owed[1 - src_i]
        return self.loop.run(src_i, 1, marks=marks, gathers=edges)

    # -- ghost handling -------------------------------------------------------
    # The ghost marks are owed to the next tick (``owed``); its loop checks
    # each ghost rect once, when the mark first joins a run.
    def write_ghost(self, which: int, rect: Rect, data) -> None:
        """Install rows (neighbour edge rows, or 0 to re-zero a global
        boundary) into a ghost region of the host image (functional
        mode). The device copies are invalidated by the owed mark."""
        self.slabs[which].host[rect.slices()] = data

    def edge_data(self, which: int, rect: Rect) -> np.ndarray:
        """Host copy of freshly gathered edge rows (functional mode)."""
        return self.slabs[which].host[rect.slices()].copy()

    def read_rows(self, which: int, g_lo: int, g_hi: int) -> np.ndarray | None:
        """Host copy of global rows ``[g_lo, g_hi)`` of the extended slab:
        interior rows (the caller gathers them first, :meth:`gather_rows`)
        or ghost rows, which lie outside ``[lo, hi)`` and whose host copy
        is the one the last exchange wrote."""
        if not self.functional:
            return None
        off = g_lo - self.lo + self.radius  # global -> extended slab rows
        return self.slabs[which].host[off : off + (g_hi - g_lo)].copy()

    def gather_rows(self, which: int, g_lo: int, g_hi: int) -> float:
        """Gather global rows ``[g_lo, g_hi)``, which lie inside
        ``[lo, hi)``, from devices to the host; returns the node time at
        completion. Every host read an agent makes gathers interior rows
        only, so the owed ghost marks wait for the next tick's launch:
        checkpoints and board reads gather the whole :attr:`interior`,
        the ghost cross-check some of its rows."""
        slab = self.slabs[which]
        if (g_lo, g_hi) == (self.lo, self.hi):
            # build() made the interior inside the slab: no region check.
            self.sched._gather_region(slab, self.interior)
        else:
            r = self.radius
            self.sched.gather_region(
                slab,
                Rect((g_lo - self.lo + r, g_hi - self.lo + r), (0, self.cols)),
            )
        return self.sched.wait_all()

    # -- checkpoints ----------------------------------------------------------
    def checkpoint_local(self, cid: int, which: int) -> float:
        """Coordinated-checkpoint phase 1: gather the interior and keep a
        local host snapshot of it. Returns node time after the gather
        (the snapshot copy itself is host-side and free)."""
        t = self.gather_rows(which, self.lo, self.hi)
        self.snapshot_from_host(cid, which)
        return t

    def snapshot_from_host(self, cid: int, which: int) -> None:
        """Record a local checkpoint straight from the host image —
        used right after a rebuild, when the host *is* the freshest copy
        and no device gather is needed."""
        self.ckpts.setdefault(self.node_id, {})[cid] = (
            self.lo, self.hi, self.read_rows(which, self.lo, self.hi)
        )

    def store_ckpt(
        self,
        owner: int,
        cid: int,
        lo: int,
        hi: int,
        data: np.ndarray | None,
    ) -> None:
        """Hold a replica of ``owner``'s checkpoint (rows ``[lo, hi)``)."""
        self.ckpts.setdefault(owner, {})[cid] = (
            lo,
            hi,
            None if data is None else data.copy(),
        )

    def prune_ckpts(self, keep_cid: int) -> None:
        """Drop every checkpoint generation but ``keep_cid``."""
        for store in self.ckpts.values():
            for c in [c for c in store if c != keep_cid]:
                del store[c]

    def checkpoint_rows(
        self, cid: int, g_lo: int, g_hi: int
    ) -> np.ndarray | None:
        """Rows ``[g_lo, g_hi)`` of checkpoint generation ``cid``, served
        from any snapshot or replica this node stores."""
        for store in self.ckpts.values():
            rec = store.get(cid)
            if rec is None:
                continue
            lo, hi, data = rec
            if lo <= g_lo and g_hi <= hi:
                if data is None:
                    return None
                return data[g_lo - lo : g_hi - lo]
        raise KeyError(
            f"node {self.node_id} holds no replica of rows "
            f"[{g_lo}, {g_hi}) for checkpoint {cid}"
        )

    # -- failure --------------------------------------------------------------
    def crash(self, at_time: float) -> None:
        """Fail-stop the node: every device retired, every host-resident
        byte this agent holds — slabs, its own snapshots, peers' replicas
        — poisoned, so any recovery path that consulted a dead node would
        visibly corrupt the board instead of silently passing."""
        self.node.crash(at_time)
        if self.functional:
            if self.slabs is not None:
                for d in self.slabs:
                    if d.host is not None:
                        d.host.fill(POISON)
            for store in self.ckpts.values():
                for _, _, data in store.values():
                    if data is not None:
                        data.fill(POISON)

    def revive(self, now: float) -> None:
        """Reboot a repaired node at cluster time ``now``: a fresh
        :class:`~repro.sim.node.SimNode` (same spec, same intra-node
        fault plan — stateful plan counters persist, so intra-node faults
        that already fired do not fire again) and a fresh scheduler, with
        *empty* stores. The node rejoins holding nothing: a crashed
        node's slab and checkpoint replicas are gone, and a fenced node's
        copies are stale — either way the master's anti-entropy pass must
        re-ship checkpoint data before this node is useful again."""
        self.node = SimNode(
            self.spec,
            self.gpus_per_node,
            functional=self.functional,
            faults=self.fault_plan,
        )
        self.sched = Scheduler(self.node)
        self.lo = 0
        self.hi = 0
        self.slabs = None
        self.interior = self.top_edge = self.bottom_edge = None
        self.top_ghost = self.bottom_ghost = None
        self.loop = None
        self.owed = ()
        self.ckpts = {}
        self.node.host_advance(now)
