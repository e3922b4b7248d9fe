"""Per-layer host-time tracing from outside the program.

:class:`Tracer` replaces the public methods of each layer of ``repro`` with
wrappers that record a span (name, start, end, parent, id) per call, and
restores the originals on :meth:`Tracer.uninstall`. Nothing under ``src/``
is edited, and an uninstalled tracer leaves the classes exactly as they
were.

Accounting: a span's *self time* is its duration minus the durations of
the spans it called. Self times are summed per method and per layer while
the tracer is active; the time of the traced section outside every span is
the ``other`` bucket, so the layer self times plus ``other`` add up to the
traced host time (:meth:`Tracer.layer_metrics` reports any gap).

Spans are kept in memory, within a budget, and written as one
Perfetto-loadable Chrome trace by :meth:`Tracer.write_perfetto`. A *unit*
is a span called from the benchmark itself (or from a session span such as
``ServingNode.run``); a unit and everything it called are kept or dropped
together. The first half of the budget keeps units in order, the second
half keeps the slowest of the remaining units. All spans of a unit carry
its key: the request ids of a serving batch, the job id of a lease, or the
tick number of a cluster step.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import json
import time

def layer_table():
    """``(layer, class, method names)`` for every traced layer. Imported
    lazily so that importing this module does not import ``repro``."""
    from repro.cluster import ClusterMaster, ClusterNetwork, NodeAgent
    from repro.core.graph import IterationGraph
    from repro.core.location_monitor import LocationMonitor
    from repro.core.memory_analyzer import MemoryAnalyzer
    from repro.core.plan import PlanCache
    from repro.core.scheduler import Scheduler
    from repro.server import JobServer
    from repro.server import workloads as server_workloads
    from repro.serving import (
        DynamicBatcher,
        LeNetEngine,
        ReplicaAutoscaler,
        ServingNode,
        SgemmEngine,
    )
    from repro.sim.engine import Engine
    from repro.sim.node import SimNode

    agent_methods = tuple(
        n for n, v in vars(NodeAgent).items()
        if inspect.isfunction(v) and not n.startswith("_")
    )
    lease_classes = [
        c for c in vars(server_workloads).values()
        if isinstance(c, type) and issubclass(c, server_workloads.Workload)
    ]
    table = [
        ("scheduler", Scheduler, (
            "__init__", "analyze_call", "invoke", "invoke_unmodified",
            "gather", "gather_region", "mark_host_region_dirty",
            "mark_host_dirty", "wait_all", "wait", "release")),
        ("plan", PlanCache, ("lookup",)),
        ("analyzer", MemoryAnalyzer, ("analyze", "ensure", "buffer")),
        ("monitor", LocationMonitor, (
            "compute_copies", "replay_copies", "mark_written",
            "mark_copied")),
        ("graph", IterationGraph, ("launch",)),
        ("engine", Engine, ("run", "run_graph")),
        ("serving", ServingNode, ("run",)),
        ("serving.batcher", DynamicBatcher, (
            "enqueue", "pop", "depth", "next_deadline")),
        ("serving.autoscaler", ReplicaAutoscaler, ("decide",)),
        ("serving.lenet_serve", LeNetEngine, ("serve",)),
        ("serving.sgemm_serve", SgemmEngine, ("serve",)),
        ("server", JobServer, ("step",)),
        ("server.lease", SimNode, ("begin_lease", "end_lease")),
        ("cluster.master", ClusterMaster, ("step",)),
        ("cluster.agent", NodeAgent, agent_methods),
        ("cluster.network", ClusterNetwork, ("transfer",)),
    ]
    for cls in lease_classes:
        own = tuple(n for n in ("bind", "run_chunk") if n in vars(cls))
        if own:
            table.append(("server.lease", cls, own))
    return table


def _unit_key(layer: str):
    """How a unit span of this method names the work it did."""
    if layer in ("serving.lenet_serve", "serving.sgemm_serve"):
        return lambda args, result: [r.rid for r in args[1]]
    if layer == "server":
        return lambda args, result: None if result is None else result.id
    if layer == "cluster.master":
        return lambda args, result: args[0].tick
    return None


class Tracer:
    """Wraps the layers of ``repro`` and accounts host time per layer.

    Life cycle: :meth:`install` (wrappers in place, recording off) →
    :meth:`start` → the traced section → :meth:`stop` → :meth:`uninstall`.
    Set-up runs between ``install`` and ``start`` so that the objects it
    creates (schedulers, engines) are registered for the counters.
    """

    def __init__(self, max_spans: int = 50_000):
        self.active = False
        #: Key given to units whose method names none (the benchmark sets
        #: it, e.g. to the iteration number).
        self.key = None
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.unwrapped: list[str] = []
        # Frames of open spans: [id, start_ns, child_ns, is_unit, is_session]
        self._stack: list[list] = []
        self._next_id = 1
        self.top_ns = 0
        self._patches: list[tuple[type, str, object]] = []
        # Span retention.
        self._budget = max_spans // 2
        self._in_order: list[tuple] = []
        self._slow: list[tuple] = []  # heap of (dur, seq, spans)
        self._slow_spans = 0
        self._always: list[tuple] = []
        self._unit_buf: list[tuple] = []
        self.dropped = 0
        # Registries for the counters read at stop().
        self._scheds: dict[int, object] = {}
        self._sched_base: dict[int, tuple] = {}
        self._sched_done = [0, 0, 0, 0, 0]
        self._graphs: dict[int, object] = {}
        self._graph_base: dict[int, tuple] = {}
        self._engines: dict[int, object] = {}
        self._engine_base: dict[int, tuple] = {}
        self.copy_bytes = 0
        self.counters: dict[str, float] = {}

    # -- installation ----------------------------------------------------------
    def _name(self, qualname: str, layer: str) -> int:
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _patch(self, cls: type, attr: str, new) -> None:
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, new)

    def install(self) -> None:
        from repro.core.graph import IterationGraph
        from repro.core.scheduler import Scheduler
        from repro.serving import ServingNode
        from repro.sim.engine import Engine
        from repro.sim.node import SimNode
        from repro.sim.trace import Trace

        hooks = {
            (Scheduler, "__init__"): self._see_sched,
            (Scheduler, "release"): self._release_sched,
            (IterationGraph, "launch"): self._see_graph,
            (Engine, "run"): self._see_engine,
            (Engine, "run_graph"): self._see_engine,
        }
        for layer, cls, methods in layer_table():
            for m in methods:
                fn = vars(cls).get(m)
                if not inspect.isfunction(fn):
                    self.unwrapped.append(f"{cls.__name__}.{m}")
                    continue
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"cannot span generator {cls.__name__}.{m}")
                nid = self._name(f"{cls.__name__}.{m}", layer)
                self._patch(cls, m, self._wrap(
                    fn, nid, _unit_key(layer), hooks.get((cls, m)),
                    session=cls is ServingNode,
                ))
        self._wrap_payload_sites(SimNode)
        self._wrap_trace_sinks(Trace)

    def uninstall(self) -> None:
        self.active = False
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()

    # -- spans -----------------------------------------------------------------
    def _wrap(self, fn, nid: int, key_fn, hook, session: bool = False):
        tracer = self
        stack = self._stack
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args[0])
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0, 0, parent is None or parent[4], session]
            stack.append(frame)
            result = None
            frame[1] = start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                dur = end - start
                tracer.self_ns[nid] += dur - frame[2]
                tracer.calls[nid] += 1
                if parent is None:
                    tracer.top_ns += dur
                else:
                    parent[2] += dur
                key = tracer.key if key_fn is None else key_fn(args, result)
                tracer._keep(frame, parent, nid, start, end, key)

        return wrapper

    def _keep(self, frame, parent, nid, start, end, key) -> None:
        rec = (frame[0], None if parent is None else parent[0], nid,
               start, end, key)
        if frame[4]:  # session: always kept
            self._always.append(rec)
            return
        buf = self._unit_buf
        buf.append(rec)
        if not frame[3]:
            return
        self._unit_buf = []
        unit = [r[:5] + (key,) for r in buf]
        if len(self._in_order) + len(unit) <= self._budget:
            self._in_order.extend(unit)
            return
        if len(unit) > self._budget:
            self.dropped += len(unit)
            return
        heapq.heappush(self._slow, (end - start, frame[0], unit))
        self._slow_spans += len(unit)
        while self._slow_spans > self._budget:
            _, _, gone = heapq.heappop(self._slow)
            self._slow_spans -= len(gone)
            self.dropped += len(gone)

    def span(self, fn, layer: str):
        """``fn``, recording a span in ``layer`` when called while
        active."""
        return self._wrap(fn, self._name(fn.__name__, layer), None, None)

    def _wrap_payload_sites(self, SimNode) -> None:
        kernel = self._name("payload.kernel", "payload.kernel")
        copy = self._name("payload.copy", "payload.copy")
        launch_kernel = vars(SimNode)["launch_kernel"]
        memcpy = vars(SimNode)["memcpy"]
        host_op = vars(SimNode)["host_op"]
        tracer = self

        def spanned(payload, nid):
            return tracer._wrap(payload, nid, None, None)

        def traced_launch_kernel(self, stream, duration, payload=None,
                                 label="kernel"):
            if payload is not None:
                payload = spanned(payload, kernel)
            return launch_kernel(self, stream, duration, payload, label)

        def traced_memcpy(self, stream, src, dst, nbytes, payload=None,
                          label="memcpy", pageable=False, extra_latency=0.0):
            if payload is not None:
                payload = spanned(payload, copy)
            return memcpy(self, stream, src, dst, nbytes, payload, label,
                          pageable, extra_latency)

        def traced_host_op(self, stream, duration, payload=None,
                           label="host-op"):
            if payload is not None:
                payload = spanned(payload, kernel)
            return host_op(self, stream, duration, payload, label)

        self._patch(SimNode, "launch_kernel", traced_launch_kernel)
        self._patch(SimNode, "memcpy", traced_memcpy)
        self._patch(SimNode, "host_op", traced_host_op)

    def _wrap_trace_sinks(self, Trace) -> None:
        """Tally the bytes of every simulated copy as the engine records
        it (no spans: these run once per simulated command)."""
        add_row = vars(Trace)["add_row"]
        add_batch = vars(Trace)["add_batch"]
        add = vars(Trace)["add"]
        tracer = self

        def traced_add_row(self, kind, label, device, start, end, nbytes=0,
                           src=None):
            if tracer.active and kind == "memcpy":
                tracer.copy_bytes += nbytes
            return add_row(self, kind, label, device, start, end, nbytes, src)

        def traced_add_batch(self, rows):
            rows = list(rows)
            if tracer.active:
                tracer.copy_bytes += sum(
                    r[5] for r in rows if r[0] == "memcpy"
                )
            return add_batch(self, rows)

        def traced_add(self, rec):
            if tracer.active and rec.kind == "memcpy":
                tracer.copy_bytes += rec.nbytes
            return add(self, rec)

        self._patch(Trace, "add_row", traced_add_row)
        self._patch(Trace, "add_batch", traced_add_batch)
        self._patch(Trace, "add", traced_add)

    # -- counter registries ------------------------------------------------------
    @staticmethod
    def _sched_counts(s) -> tuple:
        p, m = s.plans, s.monitor
        return (p.hits, p.misses, p.graph_hits,
                m.transition_hits, m.transition_misses)

    def _see_sched(self, s) -> None:
        self._scheds[id(s)] = s

    def _release_sched(self, s) -> None:
        if self._scheds.pop(id(s), None) is None:
            return
        base = self._sched_base.pop(id(s), (0,) * 5)
        if self.active:
            for i, (now, b) in enumerate(zip(self._sched_counts(s), base)):
                self._sched_done[i] += now - b

    def _see_graph(self, g) -> None:
        if id(g) not in self._graphs:
            self._graphs[id(g)] = g
            self._graph_base[id(g)] = self._graph_counts(g)

    @staticmethod
    def _graph_counts(g) -> tuple:
        return g.launches, g.fast_launches, g.replayed_laps

    def _see_engine(self, e) -> None:
        if id(e) not in self._engines:
            self._engines[id(e)] = e
            self._engine_base[id(e)] = self._engine_counts(e)

    @staticmethod
    def _engine_counts(e) -> tuple:
        return (e.commands_executed, e.now,
                sum(d.compute.busy_time for d in e.devices), len(e.devices))

    def start(self) -> None:
        """Baseline every registered counter and start recording."""
        self._sched_base = {
            k: self._sched_counts(s) for k, s in self._scheds.items()
        }
        self._graph_base = {
            k: self._graph_counts(g) for k, g in self._graphs.items()
        }
        self._engine_base = {
            k: self._engine_counts(e) for k, e in self._engines.items()
        }
        self.active = True

    def stop(self) -> None:
        """Stop recording and read every counter's change since start."""
        self.active = False
        sched = list(self._sched_done)
        for k, s in self._scheds.items():
            base = self._sched_base.get(k, (0,) * 5)
            for i, (now, b) in enumerate(zip(self._sched_counts(s), base)):
                sched[i] += now - b
        graph = [0, 0, 0]
        for k, g in self._graphs.items():
            for i, (now, b) in enumerate(
                zip(self._graph_counts(g), self._graph_base[k])
            ):
                graph[i] += now - b
        commands = busy = device_s = 0.0
        for k, e in self._engines.items():
            c0, t0, b0, _ = self._engine_base[k]
            c1, t1, b1, ndev = self._engine_counts(e)
            commands += c1 - c0
            busy += b1 - b0
            device_s += ndev * (t1 - t0)
        self.counters = {
            "plan.hits": sched[0],
            "plan.misses": sched[1],
            "plan.graph_hits": sched[2],
            "monitor.transition_hits": sched[3],
            "monitor.transition_misses": sched[4],
            "graph.launches": graph[0],
            "graph.fast_launches": graph[1],
            "graph.replayed_laps": graph[2],
            "engine.commands": int(commands),
            "sim.copy_bytes": self.copy_bytes,
            "sim.compute_util": busy / device_s if device_s > 0 else 0.0,
        }

    # -- results -----------------------------------------------------------------
    def layer_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, ns in enumerate(self.self_ns):
            layer = self.layer_of[nid]
            out[layer] = out.get(layer, 0.0) + ns / 1e9
        return out

    def layer_calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid, n in enumerate(self.calls):
            layer = self.layer_of[nid]
            out[layer] = out.get(layer, 0) + n
        return out

    def method_calls(self, qualname: str) -> int:
        return sum(
            n for nid, n in enumerate(self.calls)
            if self.names[nid] == qualname
        )

    def layer_metrics(self, traced_s: float) -> dict[str, float]:
        """The per-layer metrics of the traced section, which took
        ``traced_s`` host seconds. ``accounting_gap_s`` is the layer self
        times plus ``other`` minus ``traced_s``: zero unless a span was
        counted twice or lost."""
        sec = self.layer_seconds()
        calls = self.layer_calls()
        other = traced_s - self.top_ns / 1e9
        c = self.counters
        invokes = (self.method_calls("Scheduler.invoke")
                   + self.method_calls("Scheduler.invoke_unmodified"))
        steps = self.method_calls("JobServer.step")
        hits, misses = c["plan.hits"], c["plan.misses"]
        g = sec.get
        return {
            "scheduler.self_s": g("scheduler", 0.0),
            "scheduler.calls": calls.get("scheduler", 0),
            "scheduler.us_per_invoke":
                g("scheduler", 0.0) * 1e6 / invokes if invokes else 0.0,
            "plan.lookup_s": g("plan", 0.0),
            "plan.hits": hits,
            "plan.misses": misses,
            "plan.graph_hits": c["plan.graph_hits"],
            "plan.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "analyzer.self_s": g("analyzer", 0.0),
            "analyzer.calls": calls.get("analyzer", 0),
            "monitor.self_s": g("monitor", 0.0),
            "monitor.transition_hits": c["monitor.transition_hits"],
            "monitor.transition_misses": c["monitor.transition_misses"],
            "graph.launch_s": g("graph", 0.0),
            "graph.launches": c["graph.launches"],
            "graph.fast_launches": c["graph.fast_launches"],
            "graph.replayed_laps": c["graph.replayed_laps"],
            "engine.self_s": g("engine", 0.0),
            "engine.commands": c["engine.commands"],
            "engine.us_per_command": (
                g("engine", 0.0) * 1e6 / c["engine.commands"]
                if c["engine.commands"] else 0.0
            ),
            "payload.kernel_s": g("payload.kernel", 0.0),
            "payload.kernel_calls": calls.get("payload.kernel", 0),
            "payload.copy_s": g("payload.copy", 0.0),
            "payload.copy_calls": calls.get("payload.copy", 0),
            "sim.copy_bytes": c["sim.copy_bytes"],
            "sim.compute_util": c["sim.compute_util"],
            "serving.self_s": g("serving", 0.0),
            "serving.batcher_s": g("serving.batcher", 0.0),
            "serving.autoscaler_s": g("serving.autoscaler", 0.0),
            "serving.lenet_serve_s": g("serving.lenet_serve", 0.0),
            "serving.sgemm_serve_s": g("serving.sgemm_serve", 0.0),
            "server.self_s": g("server", 0.0),
            "server.lease_s": g("server.lease", 0.0),
            "server.us_per_step":
                g("server", 0.0) * 1e6 / steps if steps else 0.0,
            "cluster.master_self_s": g("cluster.master", 0.0),
            "cluster.agent_s": g("cluster.agent", 0.0),
            "cluster.network_s": g("cluster.network", 0.0),
            "other_s": other,
            "accounting_gap_s": sum(sec.values()) + other - traced_s,
        }

    def spans(self) -> list[tuple]:
        """Kept spans ``(id, parent, name, start_ns, end_ns, key)``, by
        start time."""
        kept = list(self._always) + self._in_order
        for _, _, unit in self._slow:
            kept.extend(unit)
        kept.sort(key=lambda r: (r[3], r[0]))
        return [(i, p, self.names[n], s, e, k) for i, p, n, s, e, k in kept]

    def write_perfetto(self, path, metadata: dict) -> int:
        """Write the kept spans as a Chrome JSON trace (loadable by
        https://ui.perfetto.dev); returns the number of spans written."""
        spans = self.spans()
        t0 = spans[0][3] if spans else 0
        layer = dict(zip(self.names, self.layer_of))
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": metadata.get("workload", "perf")}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
        ]
        for sid, parent, name, start, end, key in spans:
            args = {"id": sid, "parent": parent}
            if key is not None:
                args["key"] = key
            events.append({
                "name": name, "cat": layer[name], "ph": "X", "pid": 1,
                "tid": 1, "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                "args": args,
            })
        meta = dict(metadata, spans_kept=len(spans),
                    spans_dropped=self.dropped, unwrapped=self.unwrapped)
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, f, separators=(",", ":"))
        return len(spans)
