"""The four benchmark workloads and the round that runs one of them.

Each workload is driven only through the public ``repro`` API and makes
every input from its seed. A workload has three phases:

* ``setup()`` builds the system up to the timed section (timed apart, as
  the ``setup_s`` metric);
* ``run(state, chunk)`` is the timed section; at fixed points of its own
  loop it calls ``chunk(done)`` with the units of work (``unit``) done so
  far, cutting every round of one seed into the same chunks;
* ``results(state)`` reads the simulated-time outcome, and ``check(state)``
  verifies outputs against plain numpy.

:func:`run_round` runs one workload once in this process and returns
everything it measured as a JSON-ready dict.
"""

from __future__ import annotations

import gc
import resource
import time
from types import SimpleNamespace

import numpy as np

from metrics import percentile
from repro import GTX_780, Matrix, Scheduler, SimNode, Vector
from repro.apps.lenet import LeNetParams, reference_forward
from repro.cluster import ClusterFaultPlan, ClusterMaster, NodeCrash, NodeRepair
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import (
    histogram_containers,
    histogram_grid,
    make_histogram_kernel,
)
from repro.libs.cublas import make_sgemm_routine, sgemm_containers
from repro.server import (
    DONE,
    GoLWorkload,
    HistogramWorkload,
    JobServer,
    JobSpec,
    SgemmWorkload,
    TenantQuota,
)
from repro.serving import ServingConfig, ServingNode, poisson_trace

#: Set-ups per round; ``setup_s`` is their median.
SETUPS = 8


# -- node_eager ----------------------------------------------------------------
class _NodeProgram:
    """GoL ping-pong, a histogram and a chained SGEMM on one 4-GPU node
    with a cached scheduler. ``arrays`` (board, image, x0, b) makes the
    node functional; without it the node is timing-only."""

    def __init__(self, board: int, gemm: int, arrays=None):
        functional = arrays is not None
        self.node = SimNode(GTX_780, 4, functional=functional)
        s = self.sched = Scheduler(self.node)
        self.gol = make_gol_kernel()
        self.boards = [Matrix(board, board, np.uint8, "gol.a"),
                       Matrix(board, board, np.uint8, "gol.b")]
        self.hist_kernel = make_histogram_kernel("maps")
        self.image = Matrix(board, board, np.uint8, "hist.image")
        self.hist = Vector(256, np.int32, "hist.out")
        self.gemm = make_sgemm_routine()
        self.b = Matrix(gemm, gemm, np.float32, "gemm.B")
        self.xs = [Matrix(gemm, gemm, np.float32, "gemm.X"),
                   Matrix(gemm, gemm, np.float32, "gemm.Y")]
        if functional:
            board0, image, x0, b = arrays
            self.boards[0].bind(board0.copy())
            self.boards[1].bind(np.zeros_like(board0))
            self.image.bind(image)
            self.hist.bind(np.zeros(256, np.int32))
            self.b.bind(b)
            self.xs[0].bind(x0.copy())
            self.xs[1].bind(np.zeros_like(x0))
        self.grid = histogram_grid(self.image)
        self.hist_args = histogram_containers(self.image, self.hist)
        a, c = self.boards
        x, y = self.xs
        s.analyze_call(self.gol, *gol_containers(a, c))
        s.analyze_call(self.gol, *gol_containers(c, a))
        s.analyze_call(self.hist_kernel, *self.hist_args, grid=self.grid)
        s.analyze_call(self.gemm, *sgemm_containers(x, self.b, y))
        s.analyze_call(self.gemm, *sgemm_containers(y, self.b, x))
        self.step(0)
        s.wait_all()

    def step(self, i: int, gather: bool = False) -> None:
        """Iteration ``i``: three invocations, and a histogram gather
        when asked."""
        s, g, x = self.sched, self.boards, self.xs
        s.invoke(self.gol, *gol_containers(g[i % 2], g[(i + 1) % 2]))
        s.invoke(self.hist_kernel, *self.hist_args, grid=self.grid)
        if gather:
            s.gather(self.hist)
        s.invoke_unmodified(
            self.gemm, *sgemm_containers(x[i % 2], self.b, x[(i + 1) % 2])
        )


class NodeEager:
    """One timing-only 4x GTX 780 node, 8192^2 GoL + histogram and 4096^2
    chained SGEMM, 15,000 eager iterations. Op = invocation."""

    name = "node_eager"
    op = "invocation"
    unit = "iteration"
    #: check() verifies a functional copy of the program, not this run.
    twin = True
    BOARD, GEMM = 8192, 4096
    GATHER_EVERY = 50
    TWIN_BOARD, TWIN_ITERS = 256, 20

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.iters = 300 if smoke else 15_000

    def setup(self):
        return _NodeProgram(self.BOARD, self.GEMM)

    def run(self, prog: _NodeProgram, chunk, tracer=None) -> None:
        node, sched = prog.node, prog.sched
        for i in range(1, self.iters + 1):
            if tracer is not None:
                tracer.key = i
            gather = i % self.GATHER_EVERY == 0
            prog.step(i, gather)
            if gather:
                # A long-running application drops its diagnostics: the
                # event trace and the task handles grow by every command.
                node.trace.clear()
                sched.handles.clear()
                if i < self.iters:
                    chunk(i)
        sched.wait_all()

    def work(self, prog) -> int:
        return self.iters

    def ops(self) -> int:
        return 3 * self.iters

    def commands(self, prog) -> int:
        return prog.node.engine.commands_executed

    def results(self, prog) -> dict:
        return {"sim_s": prog.node.time}

    def check(self, prog) -> tuple[int, list[str]]:
        """The same program, functional, on 256^2 boards for 20
        iterations, against numpy. A mismatch fails every operation."""
        n, iters = self.TWIN_BOARD, self.TWIN_ITERS
        rng = np.random.default_rng(self.seed)
        board = (rng.random((n, n)) < 0.35).astype(np.uint8)
        image = rng.integers(0, 256, size=(n, n)).astype(np.uint8)
        x0 = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32) / np.float32(
            np.sqrt(n)
        )
        twin = _NodeProgram(n, n, (board, image, x0, b))
        for i in range(1, iters + 1):
            twin.step(i, gather=i % self.GATHER_EVERY == 0)
        last = (iters + 1) % 2
        twin.sched.gather(twin.hist)
        twin.sched.gather(twin.boards[last])
        twin.sched.gather(twin.xs[last])
        errors = []
        want_board, want_x = board, x0
        for _ in range(iters + 1):
            want_board = gol_reference_step(want_board)
            want_x = want_x @ b
        if not np.array_equal(twin.boards[last].host, want_board):
            errors.append("node twin: GoL board differs from numpy")
        if not np.array_equal(
            twin.hist.host, np.bincount(image.ravel(), minlength=256)
        ):
            errors.append("node twin: histogram differs from numpy")
        if not np.array_equal(twin.xs[last].host, want_x):
            errors.append("node twin: chained SGEMM differs from numpy")
        return (self.ops() if errors else 0), errors


# -- serving_poisson -------------------------------------------------------------
class ServingPoisson:
    """ServingNode with the default config (4 functional GPUs, LeNet +
    SGEMM mix, batch 8, 10 ms SLO) under 16,000 open-loop Poisson
    requests at a fixed 50,000 req/s. Op = request."""

    name = "serving_poisson"
    op = "request"
    unit = "batch"
    twin = False
    RATE = 50_000.0
    WARMUP = 64
    CHECK_EVERY = 50

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        n = 600 if smoke else 16_000
        self.trace = poisson_trace(n, self.RATE, seed=seed)
        # The warm-up only pays one-time costs, so it is the same for every
        # seed: set-up time then does not depend on the seed.
        self.warmup = poisson_trace(self.WARMUP, self.RATE, seed=0)
        self.config = ServingConfig()

    def setup(self):
        # The throwaway warm-up pays one-time host costs (first calls of
        # numpy and BLAS paths) before the measured node exists.
        ServingNode(self.config).run(self.warmup)
        return SimpleNamespace(node=ServingNode(self.config), report=None)

    def run(self, st, chunk, tracer=None) -> None:
        # The serving loop clears its node's trace every `clear_every`
        # batches; those calls cut the run into equal chunks.
        trace = st.node.node.trace
        clear = trace.clear
        every = self.config.clear_every
        clears = 0

        def clear_and_mark() -> None:
            nonlocal clears
            clear()
            clears += 1
            chunk(clears * every)

        trace.clear = clear_and_mark
        try:
            st.report = st.node.run(self.trace)
        finally:
            del trace.clear

    def ops(self) -> int:
        return len(self.trace)

    def work(self, st) -> int:
        return st.report.batches

    def commands(self, st) -> int:
        return st.node.node.engine.commands_executed

    def results(self, st) -> dict:
        rep = st.report
        lat = rep.latencies
        p50, _ = percentile(lat, 0.5)
        p999, beyond = percentile(lat, 0.999)
        return {
            "sim_s": rep.makespan,
            "latency_p50_ms": p50 * 1e3,
            "latency_p999_ms": p999 * 1e3,
            "goodput_rps": rep.goodput,
            "slo_attainment": rep.slo_attainment,
            "serving.batches": rep.batches,
            "serving.mean_batch": rep.mean_batch,
            "serving.peak_replicas": rep.peak_replicas,
            "serving.provisionings": rep.provisionings,
            "serving.scaling_events": len(rep.scaling_events),
            "samples": {"latency_p50_ms": [len(lat), len(lat) // 2],
                        "latency_p999_ms": [len(lat), beyond]},
        }

    def check(self, st) -> tuple[int, list[str]]:
        """Every request answered, and every 50th answer equal to plain
        numpy at the engines' padded shape."""
        cfg, rep = self.config, st.report
        missing = [r.rid for r in self.trace.requests if r.rid not in rep.results]
        errors = [f"serving: {len(missing)} requests unanswered"] if missing else []
        params = LeNetParams.initialize(cfg.model_seed)
        size = cfg.sgemm_size
        b = np.random.default_rng(cfg.model_seed).standard_normal(
            (size, size)
        ).astype(np.float32) / np.float32(np.sqrt(size))
        wrong = 0
        for req in self.trace.requests[::self.CHECK_EVERY]:
            got = rep.results.get(req.rid)
            if got is None:
                continue
            rng = np.random.default_rng(req.seed)
            if req.kind == "lenet":
                x = np.zeros((cfg.max_batch, 1, 28, 28), np.float32)
                x[0] = rng.standard_normal((1, 28, 28)).astype(np.float32)
                want = reference_forward(params, x).logits[0]
            else:
                x = np.zeros((cfg.max_batch, size), np.float32)
                x[0] = rng.standard_normal(size).astype(np.float32)
                for _ in range(cfg.sgemm_layers):
                    x = x @ b
                want = x[0]
            if not np.array_equal(got, want):
                wrong += 1
        if wrong:
            errors.append(f"serving: {wrong} sampled answers differ from numpy")
        return len(missing) + wrong, errors


# -- jobserver_openloop ----------------------------------------------------------
class JobServerOpenLoop:
    """JobServer on 4 functional GPUs, time slice 2e-4 s, tenants t0/t1/t2
    with shares 2/1/1, 2,500 seeded jobs arriving as a Poisson stream
    (mean gap 4e-4 s). Op = job."""

    name = "jobserver_openloop"
    op = "job"
    unit = "lease"
    twin = False
    KINDS = (GoLWorkload, HistogramWorkload, SgemmWorkload)
    QUOTAS = {"t0": TenantQuota(share=2.0), "t1": TenantQuota(share=1.0),
              "t2": TenantQuota(share=1.0)}
    STEPS_PER_CHUNK = 100

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        n = 120 if smoke else 2_500
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(4e-4, n))
        # Exact shares, shuffled: with independent draws the count of long
        # jobs alone moved host time per job by 13% between seeds.
        index = np.arange(n)
        kinds = rng.permutation(index % len(self.KINDS))
        long = rng.permutation(index < n // 10)
        gpus = rng.permutation(1 + index % 2)
        tenants = rng.permutation(index % 3)
        seeds = rng.integers(0, 2**31 - 1, n)
        self.jobs = [
            (int(kinds[i]), 16 if long[i] else 2, int(gpus[i]),
             f"t{tenants[i]}", float(arrivals[i]), int(seeds[i]))
            for i in range(n)
        ]

    def setup(self):
        srv = JobServer(functional=True, time_slice=2e-4, quotas=self.QUOTAS)
        jobs = [
            srv.submit(JobSpec(
                self.KINDS[kind](size=16, iterations=iters, seed=wseed),
                tenant=tenant, name=f"job{i}", gpus=gpus, arrival=arrival,
            ))
            for i, (kind, iters, gpus, tenant, arrival, wseed)
            in enumerate(self.jobs)
        ]
        return SimpleNamespace(srv=srv, jobs=jobs, leases=0)

    def run(self, st, chunk, tracer=None) -> None:
        # JobServer.run() is this loop; stepping it here cuts the run
        # into chunks of equal lease counts.
        while st.srv.step() is not None:
            st.leases += 1
            if st.leases % self.STEPS_PER_CHUNK == 0:
                chunk(st.leases)

    def ops(self) -> int:
        return len(self.jobs)

    def work(self, st) -> int:
        return st.leases

    def commands(self, st) -> int:
        return st.srv.node.engine.commands_executed

    def results(self, st) -> dict:
        waits = [j.queue_wait for j in st.jobs if j.queue_wait is not None]
        p50, _ = percentile(waits, 0.5)
        p995, beyond = percentile(waits, 0.995)
        return {
            "sim_s": st.srv.node.time,
            "queue_wait_p50_ms": p50 * 1e3,
            "queue_wait_p995_ms": p995 * 1e3,
            "fairness": st.srv.fairness(),
            "server.leases": st.leases,
            "server.preemptions": sum(j.preemptions for j in st.jobs),
            "server.peak_queue": _peak_queue(st.jobs),
            "samples": {"queue_wait_p50_ms": [len(waits), len(waits) // 2],
                        "queue_wait_p995_ms": [len(waits), beyond]},
        }

    def check(self, st) -> tuple[int, list[str]]:
        """Every job DONE with a result equal to its numpy reference."""
        bad = [
            j.id for j in st.jobs
            if j.state != DONE or not np.array_equal(
                j.spec.workload.result(), j.spec.workload.reference()
            )
        ]
        errors = [f"jobserver: {len(bad)} jobs not DONE or wrong "
                  f"(first {bad[:3]})"] if bad else []
        return len(bad), errors


def _peak_queue(jobs) -> int:
    """Most jobs waiting at once (arrived, not running, not finished),
    swept from the jobs' transition histories."""
    deltas = []
    for job in jobs:
        for t, event in job.history:
            if event == "submitted" or event.startswith(("preempted",
                                                         "unrecoverable")):
                deltas.append((t, 1))
            elif event == "started" or event.startswith("resumed"):
                deltas.append((t, -1))
    depth = peak = 0
    for _, d in sorted(deltas):
        depth += d
        peak = max(peak, depth)
    return peak


# -- cluster_elastic -------------------------------------------------------------
class ClusterElastic:
    """ClusterMaster on 8 nodes x 2 timing-only GTX 780s, 2048^2 GoL,
    3,000 ticks, checkpoints every 100 ticks, one seeded node crashing at
    0.40 s and repaired at 0.55 s with re-slab on rejoin. Op = tick."""

    name = "cluster_elastic"
    op = "tick"
    unit = "tick"
    twin = True
    NODES, GPUS, BOARD = 8, 2, 2048
    SETUP_TICKS = 20
    TICKS_PER_CHUNK = 100
    TWIN_NODES, TWIN_SHAPE, TWIN_TICKS = 4, (64, 32), 60

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.ticks = 300 if smoke else 3_000
        scale = self.ticks / 3_000
        self.crash_at, self.repair_at = 0.40 * scale, 0.55 * scale
        rng = np.random.default_rng(seed)
        self.crashed = int(rng.integers(1, self.NODES))
        self.twin_crashed = int(rng.integers(1, self.TWIN_NODES))
        self.twin_board = (rng.random(self.TWIN_SHAPE) < 0.35).astype(np.int32)

    @staticmethod
    def _plan(node: int, crash_at: float, repair_at: float, interval: int):
        return ClusterFaultPlan(
            checkpoint_interval=interval,
            reslab_on_rejoin=True,
            node_crashes=[NodeCrash(node, crash_at)],
            node_repairs=[NodeRepair(node, repair_at)],
        )

    def setup(self):
        plan = self._plan(self.crashed, self.crash_at, self.repair_at, 100)
        master = ClusterMaster(
            GTX_780, self.NODES, self.GPUS, (self.BOARD, self.BOARD),
            make_gol_kernel("maps"), functional=False, faults=plan,
        )
        for _ in range(self.SETUP_TICKS):
            master.step()
        # Every SimNode the run touches: repaired nodes get a fresh one,
        # and the old one's commands still count.
        nodes = {id(a.node): a.node for a in master.agents.values()}
        return SimpleNamespace(master=master, plan=plan, nodes=nodes,
                               tick_ms=[])

    def run(self, st, chunk, tracer=None) -> None:
        m, nodes = st.master, st.nodes
        while m.tick < self.ticks:
            t = m.time
            m.step()
            st.tick_ms.append((m.time - t) * 1e3)
            for a in m.agents.values():
                nodes.setdefault(id(a.node), a.node)
            if m.tick % self.TICKS_PER_CHUNK == 0 and m.tick < self.ticks:
                chunk(m.tick - self.SETUP_TICKS)

    def ops(self) -> int:
        return self.ticks - self.SETUP_TICKS

    def work(self, st) -> int:
        return self.ops()

    def commands(self, st) -> int:
        return sum(n.engine.commands_executed for n in st.nodes.values())

    def results(self, st) -> dict:
        m, plan = st.master, st.plan
        p50, _ = percentile(st.tick_ms, 0.5)
        return {
            "sim_s": m.time,
            "cluster.tick_sim_ms_p50": p50,
            "cluster.tick_sim_ms_max": max(st.tick_ms),
            "cluster.checkpoints": plan.checkpoints_taken,
            "cluster.recoveries": plan.recoveries,
            "cluster.readmitted": plan.nodes_readmitted,
            "cluster.fabric_bytes": sum(m.network.link_bytes.values()),
            "cluster.fabric_transfers": sum(m.network.link_transfers.values()),
        }

    def check(self, st) -> tuple[int, list[str]]:
        """A functional 64x32 board on 4 nodes with the same crash and
        repair, placed at the same fractions of its run, against numpy."""
        board, ticks = self.twin_board, self.TWIN_TICKS
        kernel = make_gol_kernel("maps")
        calm = ClusterMaster(GTX_780, self.TWIN_NODES, self.GPUS, board,
                             kernel, faults=ClusterFaultPlan())
        span = calm.run(ticks)
        plan = self._plan(self.twin_crashed, 0.40 * span, 0.55 * span, 10)
        twin = ClusterMaster(GTX_780, self.TWIN_NODES, self.GPUS, board,
                             kernel, faults=plan)
        twin.run(ticks)
        want = board
        for _ in range(ticks):
            want = gol_reference_step(want, wrap=False)
        errors = []
        if not np.array_equal(twin.board(), want):
            errors.append("cluster twin: board differs from numpy")
        if plan.recoveries != 1 or plan.nodes_readmitted != 1:
            errors.append(
                f"cluster twin: {plan.recoveries} recoveries and "
                f"{plan.nodes_readmitted} re-admissions, expected 1 and 1"
            )
        return (self.ops() if errors else 0), errors


WORKLOADS = {w.name: w for w in
             (NodeEager, ServingPoisson, JobServerOpenLoop, ClusterElastic)}


def calibration_loop() -> int:
    """Fixed interpreter work that every host time is scaled by.

    Timed next to each chunk and each set-up (see :func:`calibrate`), it
    measures how fast the host runs Python at that moment. Changing it
    changes every host metric."""
    table = {}
    acc = 0
    for i in range(750):
        key = (i, i + 1, i * 2)
        table[key] = [x * 3 for x in key]
        acc += len(table[key]) + sum(table[key]) % 7
    return acc + len(sorted(table, key=lambda k: -k[2]))


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def calibrate(loop=calibration_loop) -> float:
    """Seconds ``loop`` takes now: the fastest of three runs (the first
    refills caches the workload evicted), with the cyclic garbage
    collector paused so that a collection of the workload's heap is not
    charged to the loop."""
    gc.disable()
    try:
        return min(_timed(loop), _timed(loop), _timed(loop))
    finally:
        gc.enable()


class _Chunks:
    """The chunk callback of a timed section. Each row is ``[host
    seconds, units of work, calibration seconds]``; the calibration is
    the mean of the samples taken just before and just after the chunk,
    and is excluded from the chunk's seconds."""

    def __init__(self, loop):
        self.loop = loop
        self.rows: list[list[float]] = []
        self.cal = calibrate()
        self.done = 0
        self.start = time.perf_counter()

    def __call__(self, done: int) -> None:
        t = time.perf_counter()
        cal = calibrate(self.loop)
        self.rows.append([t - self.start, done - self.done,
                          (self.cal + cal) / 2])
        self.cal, self.done = cal, done
        self.start = time.perf_counter()


def run_round(name: str, seed: int, smoke: bool = False, trace: bool = False,
              check: bool = True, perfetto: str | None = None) -> dict:
    """Run workload ``name`` once: ``SETUPS`` set-ups, the timed section
    (traced if asked), then the checks. ``check=False`` skips the
    functional twins of the timing-only workloads, which verify the
    program rather than this round's outputs."""
    wl = WORKLOADS[name](seed, smoke)
    tracer = None
    loop = calibration_loop
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # Calibration inside a traced section is its own span, so it is
        # not charged to the layer that happens to call the chunk hook.
        loop = tracer.span(calibration_loop, "perf.calibration")
    setups = []
    state = None
    for _ in range(SETUPS):
        state = None
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append([time.perf_counter() - t0, cal])
    gc.collect()
    commands0 = wl.commands(state)
    if tracer is not None:
        tracer.start()
    chunks = _Chunks(loop)
    t0 = chunks.start
    wl.run(state, chunks, tracer)
    chunks(wl.work(state))
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "workload": name, "seed": seed, "smoke": smoke, "traced": trace,
        "setup_s": setups, "chunks": chunks.rows,
        "ops": wl.ops(), "unit": wl.unit, "work": wl.work(state),
        "commands": wl.commands(state) - commands0,
        "rss_mib": rss_mib, "sim": wl.results(state),
    }
    failed, errors = 0, []
    if check or not wl.twin:
        failed, errors = wl.check(state)
    out.update(attempted=wl.ops(), failed=failed, errors=errors)
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(t1 - t0)
        if perfetto:
            out["spans"] = tracer.write_perfetto(
                perfetto, {"workload": name, "seed": seed, "smoke": smoke})
    return out
