"""Memory pressure (DESIGN.md §10): eviction and out-of-core chunking.

The scheduler's one allocation pass hands a device to
:meth:`MemoryPressure.prepare` only when its working set does not fit.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from repro.core.buffers import locate_virtual
from repro.core.datum import Datum
from repro.core.plan import ChunkPlan, TaskPlan, binding, build_chunk_plan
from repro.core.recovery import _RescheduleError
from repro.core.task import Task
from repro.errors import AllocationError, CapacityError
from repro.hardware.topology import HOST
from repro.patterns.base import OutputContainer
from repro.sim.commands import Event
from repro.sim.memory import DeviceBuffer
from repro.sim.trace import TraceRecord
from repro.utils.rect import Rect

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import Scheduler


class MemoryPressure:
    """The eviction ladder and chunk replay of one scheduler, with the
    chunk plans and staging pools they keep."""

    def __init__(self, sched: "Scheduler"):
        # Weak, so the scheduler is still freed as soon as its owner drops
        # it (a replica or a lease), not at the next cyclic collection.
        self.sched = weakref.proxy(sched)
        #: token -> (device, pool buffers) for in-flight out-of-core chunk
        #: replays. Pools normally free themselves via a deferred command
        #: at the end of the chunk sequence; device retirement and release
        #: clear streams, so :meth:`free_pools` force-frees whatever is
        #: still registered here.
        self.live_pools: dict[int, tuple[int, list[DeviceBuffer]]] = {}
        #: Out-of-core chunk plans per (binding, device). They depend on
        #: memory pressure, not geometry, so they stay with this scheduler
        #: and binding instead of the node's shared plan. Pressure state is
        #: deliberately NOT part of the key: every replay attempts the
        #: in-core path first and falls into chunking only when the
        #: allocation actually fails, so a cached plan self-heals when
        #: memory frees up; a cached chunk plan is revalidated against the
        #: device's *current* ``free_bytes`` before reuse and rebuilt when
        #: stale.
        self.chunk_plans: dict[tuple, ChunkPlan] = {}
        self.pool_tokens = 0

    def prepare(
        self, task: Task, plan: TaskPlan, device: int
    ) -> list[DeviceBuffer] | ChunkPlan:
        """Make one device's working set resident after the in-core
        allocation failed, escalating through the degradation ladder:

        1. evict cold replicas LRU-first — first only safely-evictable ones
           (every byte also up to date on the host or a peer), then sole
           copies after salvaging them to the host;
        2. out-of-core: evict the task's own staged buffers too and replay
           this device's share in chunks through fixed staging pools;
        3. an irreducible single-chunk footprint raises
           :class:`~repro.errors.CapacityError` (from ``build_chunk_plan``).

        Returns the task's buffers once an eviction made them fit, or the
        chunk plan for stage 2.
        """
        sched = self.sched
        analyzer = sched.analyzer
        monitor = sched.monitor
        node = sched.node
        memory = node.devices[device].memory
        # Queued copies may still reference buffers about to be evicted,
        # and their payloads resolve the analyzer's buffers at dispatch
        # time: drain them first, recovering faults exactly as in
        # ``wait_all``. A recovery retires a device, invalidating this
        # replay's plan — abort and reschedule.
        sched._drive(node.run)
        if any(dev not in sched._alive for dev in plan.active):
            raise _RescheduleError
        task_dids = {id(c.datum) for c in task.containers}
        for salvage in (False, True):
            while True:
                victim = next((
                    datum for datum in self._cold_replicas(device, task_dids)
                    if salvage or monitor.evictable(datum, device)
                ), None)
                if victim is None:
                    break
                self._evict(victim, device, salvage=salvage)
                bufs = sched._alloc_task_buffers(task, device)
                if bufs is not None:
                    return bufs
        # Stage 2: the task's own staged inputs/outputs are streamed per
        # chunk instead of held whole; only duplicated outputs stay
        # resident (chunk kernels accumulate into them in place), and
        # unaggregated partials are never evicted.
        for c in task.containers:
            dup = isinstance(c, OutputContainer) and c.duplicated
            if (
                not dup
                and analyzer.has_buffer(c.datum, device)
                and not monitor.has_partial_on(c.datum, device)
            ):
                self._evict(c.datum, device, salvage=True)
        for c in task.outputs:
            if not c.duplicated:
                continue
            try:
                analyzer.buffer(c.datum, device)
            except AllocationError as e:
                if e.injected:
                    raise
                box = analyzer.box(c.datum, device)
                required = box.size * c.datum.dtype.itemsize
                raise CapacityError(
                    f"device {device}: duplicated output {c.datum.name!r} "
                    f"needs {required} B resident across all chunks, but "
                    f"only {memory.free_bytes} B of {memory.capacity} B "
                    "can be freed",
                    datum=c.datum.name, required=required,
                    capacity=memory.capacity, device=device,
                ) from e
        budget = memory.free_bytes
        key = (binding(task, plan), device)
        cp = self.chunk_plans.get(key)
        if cp is None or cp.footprint > budget:
            cp = build_chunk_plan(
                task, device, plan.device_plans[device].work_rect,
                budget, memory.capacity,
            )
            if plan.memoize:
                self.chunk_plans[key] = cp
        node.trace.add(TraceRecord(
            kind="event",
            label=(
                f"chunk-plan:{task.name}@gpu{device}:"
                f"{cp.num_chunks}x{cp.slots}"
            ),
            device=device, start=node.time, end=node.time,
        ))
        sched._graph_generation += 1
        return cp

    def _evict(self, datum: Datum, device: int, salvage: bool) -> None:
        """Evict one datum's replica from a device, optionally salvaging
        sole pieces to the host first, and leave an ``evict:`` event in the
        trace."""
        sched = self.sched
        node = sched.node
        sched._graph_generation += 1
        if salvage:
            self._salvage(datum, device)
        freed = sched.analyzer.evict(datum, device)
        sched.monitor.drop_location(datum, device)
        node.trace.add(TraceRecord(
            kind="event",
            label=f"evict:{datum.name}@gpu{device}",
            device=device, start=node.time, end=node.time, nbytes=freed,
        ))

    def _salvage(self, datum: Datum, device: int) -> None:
        """Copy sole up-to-date pieces (no replica anywhere else) to the
        host before eviction. Algorithm 2's correctness hinges on never
        losing a last-output instance; the eviction ladder upholds the same
        invariant by gathering before freeing. The functional payload
        snapshots the data eagerly — the buffer is freed before the queued
        copy executes in simulated time."""
        sched = self.sched
        node = sched.node
        monitor = sched.monitor
        pieces = monitor.sole_pieces(datum, device)
        if not pieces:
            return
        stream = sched._copy_out[device]
        for wev in monitor.take_war_events(datum, HOST):
            node.wait_event(stream, wev)
        buf = sched.analyzer.buffer(datum, device)
        for piece, pev in pieces:
            if piece.empty:
                continue
            payload = None
            if node.functional:
                virt = locate_virtual(buf, piece, datum.shape)
                arr = buf.view(virt).copy()

                def payload(piece=piece, arr=arr):
                    datum.host[piece.slices()] = arr
            if pev is not None and not pev.recorded:
                node.wait_event(stream, pev)
            node.memcpy(
                stream, src=device, dst=HOST,
                nbytes=piece.size * datum.dtype.itemsize, payload=payload,
                label=f"salvage:{datum.name}:{device}->host",
            )
            ev = node.record_event(stream, f"salvage:{datum.name}:{device}")
            monitor.mark_copied(datum, HOST, piece, ev)

    def recovery_oom(
        self, datum: Datum, device: int, exc: AllocationError
    ) -> bool:
        """``oom_handler`` for re-analysis after a retirement or a weight
        change: survivors' boxes grow to absorb a larger share and may no
        longer fit. Evict the coldest foreign replica and retry the growth
        (return True); with nothing foreign left, drop the growing
        datum's own buffer — salvaging sole pieces — so it re-stages
        lazily at next use (return False)."""
        candidates = self._cold_replicas(device, {id(datum)})
        for dat in candidates:
            if self.sched.monitor.evictable(dat, device):
                self._evict(dat, device, salvage=False)
                return True
        if candidates:
            self._evict(candidates[0], device, salvage=True)
            return True
        if self.sched.analyzer.has_buffer(datum, device):
            self._evict(datum, device, salvage=True)
        return False

    def _cold_replicas(self, device: int, keep: set) -> list[Datum]:
        """Eviction candidates on a device, least recently used first (ties
        by name): every resident datum whose id is not in ``keep``, except
        unaggregated partials, which are never evicted."""
        monitor = self.sched.monitor
        victims = [
            (datum, buf)
            for datum, buf in self.sched.analyzer.buffers_on(device)
            if id(datum) not in keep
            and not monitor.has_partial_on(datum, device)
        ]
        victims.sort(key=lambda v: (v[1].last_use, v[0].name))
        return [datum for datum, _ in victims]

    @staticmethod
    def _pool_slice(
        device: int, pool: DeviceBuffer, rect: Rect, dtype
    ) -> DeviceBuffer:
        """A zero-cost staging alias over a pool slab: a DeviceBuffer whose
        rect is one chunk's box, backed by a view of the slab's array. Not
        an allocation — pools are the only chunk-path allocations, keeping
        FaultPlan nth-allocation numbering stable across chunk counts."""
        data = None
        if pool.data is not None:
            data = pool.data[tuple(slice(0, n) for n in rect.shape)]
        return DeviceBuffer(device, rect, dtype, data)

    def replay_chunked(
        self, task: Task, plan: TaskPlan, cp: ChunkPlan
    ) -> tuple[Event, Event]:
        """Out-of-core replay of one device's share (stage 2): alloc ->
        copy-in -> kernel -> copy-out/free per chunk. With two staging
        slots, chunk i's copy-out overlaps chunk i+1's copy-in and compute
        on the dual copy engines (the cuda-style double-buffered
        pipeline). Returns ``(done_event, last_kernel_event)`` — the former
        ends the whole pipeline (last copy-out + pool release), the latter
        is the producer event for duplicated partials.
        """
        sched = self.sched
        node = sched.node
        monitor = sched.monitor
        analyzer = sched.analyzer
        d = cp.device
        mem = node.devices[d].memory
        cout = sched._copy_out[d]
        comp = sched._compute[d]
        dp = plan.device_plans[d]
        inputs = task.inputs
        outputs = task.outputs

        # Register the pool set *before* carving it out: an injected
        # allocation fault mid-pool must not leak the slabs already
        # allocated when retirement clears the streams (and with them the
        # deferred free below).
        self.pool_tokens += 1
        token = self.pool_tokens
        pools: list[DeviceBuffer] = []
        self.live_pools[token] = (d, pools)

        eff_slots = min(cp.slots, cp.num_chunks)

        def slabs(n: int, rect: Rect, dtype) -> list[DeviceBuffer]:
            new: list[DeviceBuffer] = []
            for _ in range(n):
                new.append(mem.allocate(d, rect, dtype))
                pools.append(new[-1])
            return new

        in_pools = [
            slabs(1, cp.steps[0].input_reqs[i].virtual, c.datum.dtype)
            if cp.persistent_in[i] else
            slabs(eff_slots, Rect.from_shape(cp.in_pool_shapes[i]),
                  c.datum.dtype)
            for i, c in enumerate(inputs)
        ]
        out_pools: list[Optional[list[DeviceBuffer]]] = [
            None if shape is None  # duplicated: analyzer-resident
            else slabs(eff_slots, Rect.from_shape(shape), c.datum.dtype)
            for c, shape in zip(outputs, cp.out_pool_shapes)
        ]

        # Chunk-invariant inputs are staged once, before the first chunk.
        persist_events: list[Event] = []
        for i, c in enumerate(inputs):
            if cp.persistent_in[i]:
                persist_events += self._chunk_in(
                    c.datum, d, cp.steps[0].input_reqs[i],
                    in_pools[i][0], dp.peers, [],
                )

        # Duplicated outputs accumulate in the resident buffer across all
        # chunks: zero them once up front (after in-flight readers drain).
        # Non-duplicated outputs land on the host; their WAR events gate
        # the first copy-out.
        host_war: list[Event] = []
        for o, c in enumerate(outputs):
            if out_pools[o] is None:
                war = list(monitor.take_war_events(c.datum, d))
                sched._enqueue_clear(
                    c.datum, d, analyzer.buffer(c.datum, d), war
                )
            else:
                host_war += monitor.take_war_events(c.datum, HOST)
        for wev in host_war:
            node.wait_event(cout, wev)

        slot_kernel_ev: list[Optional[Event]] = [None] * eff_slots
        slot_out_ev: list[Optional[Event]] = [None] * eff_slots
        last_kev: Event = None  # type: ignore[assignment]
        for jn, step in enumerate(cp.steps):
            s = jn % eff_slots
            # In-slot WAR: the slab's previous kernel must finish before
            # its arrays are overwritten by this chunk's copy-ins.
            slot_waits = (
                [slot_kernel_ev[s]] if slot_kernel_ev[s] is not None else []
            )
            in_events: list[Event] = []
            tmp_ins: list[DeviceBuffer] = []
            for i, c in enumerate(inputs):
                if cp.persistent_in[i]:
                    tmp_ins.append(in_pools[i][0])
                    continue
                req = step.input_reqs[i]
                tmp = self._pool_slice(
                    d, in_pools[i][s], req.virtual, c.datum.dtype
                )
                in_events += self._chunk_in(
                    c.datum, d, req, tmp, dp.peers, slot_waits
                )
                tmp_ins.append(tmp)
            tmp_outs = [
                analyzer.buffer(c.datum, d) if pool is None else
                self._pool_slice(d, pool[s], rect, c.datum.dtype)
                for c, pool, rect in zip(outputs, out_pools, step.output_rects)
            ]
            waits = list(in_events)
            if jn == 0:
                # Later chunks inherit this ordering from the in-order
                # compute stream.
                waits += persist_events
            if slot_out_ev[s] is not None:
                # Out-slot WAR: the slab's previous copy-out must land
                # before this chunk's kernel overwrites it.
                waits.append(slot_out_ev[s])
            for wev in waits:
                node.wait_event(comp, wev)
            label = f"{task.name}@gpu{d}#chunk{jn + 1}/{cp.num_chunks}"
            node.launch_kernel(
                comp,
                sched._duration(task, d, step.work_rect),
                sched._kernel_payload(
                    task, d, step, len(plan.active),
                    buffers=lambda ins=tmp_ins, outs=tmp_outs:
                        task.by_container(ins, outs),
                ),
                label=label,
            )
            kev = node.record_event(comp, label)
            slot_kernel_ev[s] = kev
            last_kev = kev
            oev: Optional[Event] = None
            for o, c in enumerate(outputs):
                if out_pools[o] is None:
                    continue
                owned = step.output_rects[o]
                if owned.empty:
                    continue
                node.wait_event(cout, kev)
                payload = None
                if node.functional:
                    tmp = tmp_outs[o]

                    def payload(datum=c.datum, owned=owned, tmp=tmp):
                        datum.host[owned.slices()] = tmp.view(owned)
                node.memcpy(
                    cout, src=d, dst=HOST,
                    nbytes=owned.size * c.datum.dtype.itemsize, payload=payload,
                    label=f"chunk-out:{c.datum.name}:{d}->host#{jn + 1}",
                )
                oev = node.record_event(
                    cout, f"chunk-out:{c.datum.name}:{d}#{jn + 1}"
                )
                monitor.mark_written(c.datum, HOST, owned, oev)
            if oev is not None:
                slot_out_ev[s] = oev

        # Release the pools once the last kernel and every copy-out have
        # retired (the copy-out stream is in order; the zero-byte transfer
        # is pure bookkeeping). Device retirement clears streams, so
        # free_pools force-frees whatever is still registered.
        node.wait_event(cout, last_kev)

        def free_pools(token=token, mem=mem):
            entry = self.live_pools.pop(token, None)
            if entry is not None:
                for b in entry[1]:
                    mem.free(b)

        node.memcpy(
            cout, src=d, dst=HOST, nbytes=0, payload=free_pools,
            label=f"chunk-free:{task.name}@gpu{d}",
        )
        done = node.record_event(cout, f"{task.name}@gpu{d}#done")
        return done, last_kev

    def free_pools(self) -> None:
        """Force-free every registered chunk staging pool set: release and
        device retirement destroy the streams holding the pools' deferred
        free."""
        for dev, bufs in self.live_pools.values():
            mem = self.sched.node.devices[dev].memory
            for b in bufs:
                mem.free(b)
        self.live_pools.clear()

    def _chunk_in(
        self, datum: Datum, device: int, req, tmp: DeviceBuffer,
        peers: list[int], slot_waits: list[Event],
    ) -> list[Event]:
        """Stage one chunk-input requirement into a staging buffer; returns
        the copies' completion events. The device's own replica was evicted
        in stage 2, so Algorithm 2 sources from peers/host."""
        sched = self.sched
        source = sched._copy_source  # bound to the scheduler itself
        events: list[Event] = []
        for virt, act in req.pieces:
            if act.empty:
                continue
            off = tuple(v - a for v, a in zip(virt.begin, act.begin))

            # Writes a copy's data into the staging buffer; also rebuilds
            # the payload for an alternate source on a retry or hedge.
            def factory(op, off=off):
                def payload() -> None:
                    tmp.view(op.actual.shift(off))[...] = source(datum, op)

                return payload

            for op in sched.monitor.compute_copies(
                datum, [act], device, prefer=peers
            ):
                events.append(sched._enqueue_copy(
                    datum, op, waits=slot_waits, factory=factory
                ))
        return events
