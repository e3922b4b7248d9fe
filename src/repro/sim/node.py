"""The simulated multi-GPU node: devices + interconnect + engine façade.

This is the substrate the MAPS-Multi scheduler drives. It corresponds to
one of the paper's experimental nodes (Table 3): ``SimNode(GTX_780, 4)`` is
a quad-GTX-780 box with two PCIe-3 switches, each connecting a GPU pair.

Two execution modes (see DESIGN.md §4):

* ``functional=True`` — kernel/copy payloads run real numpy computations on
  backing arrays, so results can be checked; used by tests and examples.
* ``functional=False`` — timing only, no arrays; used by the paper-scale
  benchmarks.
"""

from __future__ import annotations


from repro.errors import DeadlockError
from repro.hardware.calibration import (
    DEFAULT_INTERCONNECT,
    InterconnectCalibration,
)
from repro.hardware.specs import GPUSpec
from repro.hardware.topology import HOST, NodeTopology
from repro.sim.commands import (
    Event,
    EventRecord,
    EventWait,
    HostOp,
    KernelLaunch,
    Memcpy,
    Payload,
)
from repro.sim.device import Device
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan
from repro.sim.stream import Stream
from repro.sim.trace import Trace


class SimNode:
    """A multi-GPU node with ``num_gpus`` identical devices."""

    def __init__(
        self,
        spec: GPUSpec,
        num_gpus: int = 4,
        functional: bool = True,
        interconnect: InterconnectCalibration | None = None,
        gpus_per_switch: int = 2,
        faults: FaultPlan | None = None,
    ):
        if num_gpus < 1:
            raise ValueError("need at least one GPU")
        self.spec = spec
        self.functional = functional
        self.interconnect = interconnect or DEFAULT_INTERCONNECT
        self.topology = NodeTopology(
            num_gpus, gpus_per_switch=gpus_per_switch, calib=self.interconnect
        )
        self.devices = [Device(i, spec, functional) for i in range(num_gpus)]
        self.trace = Trace()
        #: The unarmed state (DESIGN.md §8): built once and shared by the
        #: node and every lease without a plan of its own. Its queries are
        #: no-ops, and nothing reads its epoch with no faults to shift.
        self.empty_plan = FaultPlan()
        if faults is None:
            faults = self.empty_plan
        self.faults = faults
        self.engine = Engine(self.devices, self.topology, self.trace, faults)
        for d in self.devices:
            d.memory.fault_check = faults.check_alloc
        self.streams: list[Stream] = []
        #: Bumped by every change to the node's streams, dead devices or
        #: fault plan: an iteration graph's launch asks its node-level
        #: checks again only when this moved since they last passed
        #: (DESIGN.md §12). Nothing else can fail them once passed: the
        #: clock only advances, and an unarmed plan cannot re-arm.
        self.epoch = 0
        #: Host thread clock — the scheduler advances it to model host-side
        #: overhead; commands submitted after time t carry earliest_start=t.
        self.host_time = 0.0
        #: Iteration-graph capture hook (DESIGN.md §12). While set, every
        #: submitted command and host-clock advance is also reported to the
        #: recorder; submission behaviour is otherwise unchanged.
        self.graph_recorder = None
        #: Active tenant lease, if any (DESIGN.md §13): saved pre-lease
        #: fault/capacity state, restored by :meth:`end_lease`.
        self._lease: dict | None = None
        #: Whole-node fail-stop flag (DESIGN.md §15), set by :meth:`crash`.
        self.crashed = False
        #: Host-side memo tables shared by every caching scheduler on this
        #: node (``repro.core.plan.NodeTables``, DESIGN.md §7); created by
        #: the first one.
        self.plan_tables = None

    # -- properties ------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    @property
    def time(self) -> float:
        """Current simulated time (max of engine time and host clock)."""
        return max(self.engine.now, self.host_time)

    # -- streams ---------------------------------------------------------------
    def new_stream(
        self, device: int = HOST, role: str = "compute", label: str = ""
    ) -> Stream:
        if device != HOST and not 0 <= device < len(self.devices):
            raise IndexError(f"node has no GPU {device}")
        s = Stream(device, role, label)
        self.streams.append(s)
        self.epoch += 1
        return s

    def drop_streams(self, ids: set[int]) -> None:
        """Unregister the streams whose ``id`` is in ``ids``, dropping the
        commands they still queue."""
        for s in self.streams:
            if id(s) in ids:
                s.commands.clear()
        self.streams = [s for s in self.streams if id(s) not in ids]
        self.epoch += 1

    # -- tenant leases (DESIGN.md §13) ----------------------------------------
    def begin_lease(
        self,
        faults: FaultPlan | None = None,
        epoch: float = 0.0,
        capacity: int | None = None,
        devices: "tuple[int, ...] | None" = None,
    ) -> None:
        """Reconfigure the node for one tenant's lease (context switch).

        The job server shares one simulated node between tenants by time
        slicing; a *lease* scopes everything tenant-specific onto the
        machine for the duration of one slice:

        * the tenant's :class:`FaultPlan` (rebased to ``epoch`` so its
          plan-relative times track the job's life, not the server's;
          ``None`` installs the node's :attr:`empty_plan`), installed on
          the node, the engine, and every leased device's allocation
          fault hook — with allocation numbering restarted at the lease
          so ``AllocFailure.nth_alloc`` is lease-relative;
        * a per-device ``capacity`` clamp enforcing the tenant's memory
          quota (the §10 pressure ladder engages below the clamp, so an
          over-quota tenant degrades to eviction/chunking rather than
          dying);
        * the engine's dead map reseeded from the plan's un-consumed
          failures only — devices are repaired between leases, which *is*
          the per-tenant fault domain: one tenant's dead device never
          outlives its lease.

        Leases never nest; :meth:`end_lease` restores the unleased node.
        """
        if self._lease is not None:
            raise ValueError("lease already active; end_lease() first")
        targets = (
            self.devices
            if devices is None
            else [self.devices[d] for d in devices]
        )
        self._lease = {
            "faults": self.faults,
            "dead": dict(self.engine.dead),
            "caps": {d.index: d.memory.capacity for d in targets},
            "checks": {d.index: d.memory.fault_check for d in targets},
        }
        if faults is None:
            faults = self.empty_plan
        faults.rebase(epoch)
        self.faults = faults
        self.engine.set_fault_plan(faults)
        self.epoch += 1
        for d in targets:
            mem = d.memory
            if capacity is not None:
                mem.capacity = min(mem.capacity, int(capacity))
            # Lease-relative allocation numbering: the hook receives the
            # device's lifetime alloc_calls counter; subtract the count at
            # lease begin so the tenant's plan addresses its own Nth
            # allocation, not the machine's.
            def check(dev, nth, _base=mem.alloc_calls, _fp=faults):
                _fp.check_alloc(dev, nth - _base)

            mem.fault_check = check

    def end_lease(self) -> None:
        """Tear down the active lease: restore capacities and allocation
        hooks, drop the tenant's fault plan, mark its fired permanent
        failures consumed (repaired hardware for its next lease), and
        clear the dead map — the next tenant starts on healthy devices."""
        lease = self._lease
        if lease is None:
            raise ValueError("no active lease")
        for dev, at in self.engine.dead.items():
            # Anything dead by now actually fired (scheduler-retired
            # devices carry past times; plan-seeded future times may
            # never have been reached).
            if at <= self.time:
                self.faults.consumed_failures.add(dev)
        for d in self.devices:
            if d.index in lease["caps"]:
                d.memory.capacity = lease["caps"][d.index]
                d.memory.fault_check = lease["checks"][d.index]
        self.faults = lease["faults"]
        self.engine.set_fault_plan(self.faults, lease["dead"])
        self.epoch += 1
        self._lease = None

    # -- fault handling --------------------------------------------------------
    def retire_device(self, device: int, at_time: float) -> None:
        """Mark ``device`` permanently failed from ``at_time`` on (fail-stop).

        Used by the scheduler when it decides a device is unusable (e.g.
        after an injected allocation failure); from then on the engine
        refuses to dispatch any command touching it.
        """
        self.engine.dead.setdefault(device, at_time)
        self.epoch += 1

    def crash(self, at_time: float) -> None:
        """Fail-stop the *whole node* at ``at_time`` (DESIGN.md §15).

        The node-level fault domain: every device is retired at once, so
        any attempt to drive the node afterwards faults at dispatch —
        exactly the semantics a cluster master observes when a machine
        drops off the fabric. Device and host state on the node are
        considered lost; the caller (a
        :class:`~repro.cluster.agent.NodeAgent`) poisons its host arrays
        so nothing can silently read them back.
        """
        for d in self.devices:
            self.retire_device(d.index, at_time)
        self.crashed = True

    # -- host clock ----------------------------------------------------------
    def host_advance(self, dt: float) -> None:
        """Advance the host thread clock by ``dt`` seconds of CPU work."""
        self.host_time += dt
        if self.graph_recorder is not None:
            self.graph_recorder.record_host(dt)

    # -- command submission ----------------------------------------------------
    def launch_kernel(
        self,
        stream: Stream,
        duration: float,
        payload: Payload = None,
        label: str = "kernel",
    ) -> KernelLaunch:
        if stream.device == HOST:
            raise ValueError("kernels require a device stream")
        total = duration + self.interconnect.kernel_launch_latency
        cmd = KernelLaunch(
            label=label,
            payload=payload,
            earliest_start=self.host_time,
            duration=total,
        )
        cmd.op = self.engine.lower(cmd, stream.device)
        stream.commands.append(cmd)
        if self.graph_recorder is not None:
            self.graph_recorder.record(stream, cmd)
        return cmd

    def memcpy(
        self,
        stream: Stream,
        src: int,
        dst: int,
        nbytes: int,
        payload: Payload = None,
        label: str = "memcpy",
        pageable: bool = False,
        extra_latency: float = 0.0,
    ) -> Memcpy:
        cmd = Memcpy(
            label=label,
            payload=payload,
            earliest_start=self.host_time,
            src=src,
            dst=dst,
            nbytes=nbytes,
            pageable=pageable,
            extra_latency=extra_latency,
        )
        cmd.op = self.engine.lower(cmd, stream.device)
        stream.commands.append(cmd)
        if self.graph_recorder is not None:
            self.graph_recorder.record(stream, cmd)
        return cmd

    def record_event(self, stream: Stream, label: str = "") -> Event:
        event = Event(label=label)
        cmd = EventRecord(
            label=label, earliest_start=self.host_time, event=event
        )
        stream.commands.append(cmd)
        if self.graph_recorder is not None:
            self.graph_recorder.record(stream, cmd)
            self.graph_recorder.record_event(event)
        return event

    def wait_event(self, stream: Stream, event: Event) -> None:
        cmd = EventWait(earliest_start=self.host_time, event=event)
        stream.commands.append(cmd)
        if self.graph_recorder is not None:
            self.graph_recorder.record(stream, cmd)

    def host_op(
        self,
        stream: Stream,
        duration: float,
        payload: Payload = None,
        label: str = "host-op",
    ) -> HostOp:
        cmd = HostOp(
            label=label,
            payload=payload,
            earliest_start=self.host_time,
            duration=duration,
        )
        cmd.op = self.engine.lower(cmd, stream.device)
        stream.commands.append(cmd)
        if self.graph_recorder is not None:
            self.graph_recorder.record(stream, cmd)
        return cmd

    # -- execution ---------------------------------------------------------------
    def run(self) -> float:
        """Drain all queued commands; returns the simulated time afterwards."""
        t = self.engine.run(self.streams)
        self.host_time = max(self.host_time, t)
        return self.time

    def run_until(self, events: list[Event]) -> float:
        """Execute queued commands only until every event in ``events`` has
        been recorded (cudaEventSynchronize semantics); commands of later,
        independent work stay queued. Returns the recording time of the
        last event, to which the host clock advances."""
        self.engine.run(self.streams, until=events)
        pending = [e for e in events if not e.recorded]
        if pending:  # pragma: no cover - queues drained without recording
            raise DeadlockError(
                f"run_until: {len(pending)} events were never recorded "
                f"(first: {pending[0].label!r})"
            )
        t = max(e.recorded_at for e in events)
        self.host_time = max(self.host_time, t)
        return t

    def synchronize(self) -> float:
        """Alias for :meth:`run` (cudaDeviceSynchronize analogue)."""
        return self.run()

    def memory_report(self) -> dict[int, dict[str, int]]:
        """Per-device memory accounting (used, peak, free, alloc calls)."""
        return {
            d.index: {
                "used": d.memory.used,
                "peak": d.memory.peak,
                "free": d.memory.free_bytes,
                "alloc_calls": d.memory.alloc_calls,
            }
            for d in self.devices
        }
