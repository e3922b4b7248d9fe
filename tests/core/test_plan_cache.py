"""Plan-cache correctness: replayed invocations must be indistinguishable
from freshly-scheduled ones (§4.3 amortization is wall-clock only).

The cached scheduler may reuse partition geometry, copy decisions and
memoized location-monitor transitions — but the command stream it emits,
the simulated timeline and the functional results must be bit-identical
to the uncached baseline.
"""

import re

import numpy as np
import pytest

from repro.core import Grid, Kernel, Matrix, Scheduler, Vector
from repro.core.location_monitor import LocationMonitor
from repro.core.memory_analyzer import MemoryAnalyzer
from repro.core.plan import task_signature
from repro.core.task import Task
from repro.errors import AnalysisError
from repro.hardware import GTX_780, HOST
from repro.kernels.game_of_life import (
    gol_containers,
    gol_reference_step,
    make_gol_kernel,
)
from repro.kernels.histogram import histogram_containers, make_histogram_kernel
from repro.patterns import StructuredInjective, Window2D
from repro.sim import SimNode
from repro.sim.commands import Event
from repro.utils.rect import Rect


def run_gol(plan_cache, num_gpus=4, iters=6, n=48, seed=1):
    node = SimNode(GTX_780, num_gpus, functional=True)
    sched = Scheduler(node, plan_cache=plan_cache)
    rng = np.random.default_rng(seed)
    board = (rng.random((n, n)) < 0.35).astype(np.uint8)
    a = Matrix(n, n, np.uint8, "A").bind(board.copy())
    b = Matrix(n, n, np.uint8, "B").bind(np.zeros((n, n), np.uint8))
    k = make_gol_kernel()
    sched.analyze_call(k, *gol_containers(a, b))
    sched.analyze_call(k, *gol_containers(b, a))
    cur, nxt = a, b
    for _ in range(iters):
        sched.invoke(k, *gol_containers(cur, nxt))
        cur, nxt = nxt, cur
    out = a if iters % 2 == 0 else b
    sched.gather(out)
    return out.host.copy(), node, sched


def run_histogram(plan_cache, num_gpus=4, iters=5, n=64, seed=2):
    node = SimNode(GTX_780, num_gpus, functional=True)
    sched = Scheduler(node, plan_cache=plan_cache)
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
    image = Matrix(n, n, np.uint8, "image").bind(img.copy())
    hist = Vector(256, np.int32, "hist").bind(np.zeros(256, np.int32))
    k = make_histogram_kernel("maps")
    containers = histogram_containers(image, hist)
    grid = Grid((n, n))
    sched.analyze_call(k, *containers, grid=grid)
    for _ in range(iters):
        sched.invoke(k, *containers, grid=grid)
    sched.gather(hist)
    return hist.host.copy(), node, sched


def normalized_trace(node):
    """Trace records with global task ids masked out of labels (two
    separate runs allocate different ``Task.id`` values by construction)."""
    return [
        (r.kind, re.sub(r"#\d+", "#N", r.label), r.device, r.start, r.end,
         r.nbytes, r.src)
        for r in node.trace
    ]


class TestCachedEqualsUncached:
    """The acceptance invariant: identical arrays, times and traces."""

    def test_gol_bit_identical(self):
        out_on, node_on, _ = run_gol(plan_cache=True)
        out_off, node_off, _ = run_gol(plan_cache=False)
        assert (out_on == out_off).all()
        assert node_on.time == node_off.time
        assert normalized_trace(node_on) == normalized_trace(node_off)

    def test_histogram_bit_identical(self):
        out_on, node_on, _ = run_histogram(plan_cache=True)
        out_off, node_off, _ = run_histogram(plan_cache=False)
        assert (out_on == out_off).all()
        assert node_on.time == node_off.time
        assert normalized_trace(node_on) == normalized_trace(node_off)

    @pytest.mark.parametrize("num_gpus", [1, 2, 3])
    def test_gol_identical_across_gpu_counts(self, num_gpus):
        out_on, node_on, _ = run_gol(plan_cache=True, num_gpus=num_gpus)
        out_off, node_off, _ = run_gol(plan_cache=False, num_gpus=num_gpus)
        assert (out_on == out_off).all()
        assert node_on.time == node_off.time


class TestCacheBehavior:
    def test_steady_state_hits(self):
        """Plans are geometry only: both directions of the GoL ping-pong
        share one signature, so one miss and every later invocation
        replays that plan."""
        _, _, sched = run_gol(plan_cache=True, iters=6)
        stats = sched.plans.stats
        assert stats["plans"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 5

    def test_disabled_cache_stores_nothing(self):
        _, _, sched = run_gol(plan_cache=False, iters=6)
        stats = sched.plans.stats
        assert stats["plans"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 6
        # The uncached baseline must not amortize monitor transitions
        # across invocations either.
        assert sched.monitor.transition_hits == 0

    def test_monitor_transitions_replayed_when_cached(self):
        _, _, sched = run_gol(plan_cache=True, iters=6)
        assert sched.monitor.transition_hits > 0

    def test_plans_outlive_the_scheduler(self):
        """A later scheduler on the same node (the job server's next
        lease) replays the node's plans and monitor transitions, with its
        own counters, and the same results as the uncached oracle."""
        out_off, _, _ = run_gol(plan_cache=False)
        node = SimNode(GTX_780, 4, functional=True)
        k = make_gol_kernel()
        scheds = []
        for lease in range(2):
            sched = Scheduler(node)
            if lease == 0:
                # Other residency states first, so this lease numbers the
                # board's states differently from the next one: shared
                # copy decisions must be keyed by node-wide state ids.
                w = Matrix(8, 8, np.uint8, "w").bind(np.ones((8, 8), np.uint8))
                v = Matrix(8, 8, np.uint8, "v").bind(np.zeros((8, 8), np.uint8))
                sched.analyze_call(k, *gol_containers(w, v))
                sched.analyze_call(k, *gol_containers(v, w))
                for src, dst in ((w, v), (v, w), (w, v)):
                    sched.invoke(k, *gol_containers(src, dst))
            rng = np.random.default_rng(1)
            board = (rng.random((48, 48)) < 0.35).astype(np.uint8)
            a = Matrix(48, 48, np.uint8, "A").bind(board.copy())
            b = Matrix(48, 48, np.uint8, "B").bind(np.zeros_like(board))
            sched.analyze_call(k, *gol_containers(a, b))
            sched.analyze_call(k, *gol_containers(b, a))
            for i in range(6):
                src, dst = (a, b) if i % 2 == 0 else (b, a)
                sched.invoke(k, *gol_containers(src, dst))
            sched.gather(a)
            assert (a.host == out_off).all()
            sched.release()
            scheds.append(sched)
        first, later = scheds
        assert first.plans.stats["misses"] == 2
        assert first.monitor.transition_misses > 0
        assert later.plans.stats["misses"] == 0
        assert later.plans.stats["hits"] == 6
        assert later.monitor.transition_misses == 0
        assert len(node.plan_tables.plans) == 2

    def test_uncached_scheduler_shares_nothing(self):
        _, node, sched = run_gol(plan_cache=False)
        assert node.plan_tables is None
        assert not sched.monitor._geom_ids and not sched.monitor._transitions
        assert sched._templates is None


class TestBindingCheck:
    """A cached plan is geometry only; binding it to datums it was never
    checked against must still validate their analyzed boxes."""

    def _pair(self, n=32, seed=3):
        rng = np.random.default_rng(seed)
        board = (rng.random((n, n)) < 0.35).astype(np.uint8)
        a = Matrix(n, n, np.uint8, "A").bind(board)
        b = Matrix(n, n, np.uint8, "B").bind(np.zeros((n, n), np.uint8))
        return a, b

    def test_hit_on_datum_without_halo_box_raises(self):
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        k = make_gol_kernel()
        a, b = self._pair()
        # Only A -> B is declared: B's boxes hold its owned stripes, with
        # no halo rows for reading it through the 3x3 window.
        sched.analyze_call(k, *gol_containers(a, b))
        sched.invoke(k, *gol_containers(a, b))
        with pytest.raises(AnalysisError, match="'B'"):
            sched.invoke(k, *gol_containers(b, a))
        assert sched.plans.stats["misses"] == 1
        assert sched.plans.stats["hits"] == 1

    def test_auto_analyze_hit_analyzes_and_allocates_new_datums(self):
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node, auto_analyze=True)
        k = make_gol_kernel()
        a, b = self._pair()
        sched.invoke(k, *gol_containers(a, b))
        c, d = self._pair(seed=4)
        ref = gol_reference_step(c.host.copy())
        assert not sched.analyzer.analyzed(c, 0)
        sched.invoke(k, *gol_containers(c, d))
        assert sched.plans.stats["hits"] == 1
        (plan,) = node.plan_tables.plans.values()
        for dev in plan.active:
            assert sched.analyzer.analyzed(c, dev)
            assert sched.analyzer.analyzed(d, dev)
            assert sched.analyzer.has_buffer(c, dev)
        sched.gather(d)
        assert (d.host == ref).all()


class TestInvalidation:
    """Changing any signature component must yield a different plan."""

    def _task(self, n=32, block0=None, name="A"):
        a = Matrix(n, n, np.int32, f"{name}_in")
        b = Matrix(n, n, np.int32, f"{name}_out")
        k = self.kernel
        grid = Grid((n, n), block0=block0) if block0 else None
        return Task(k, [Window2D(a, 1), StructuredInjective(b)], grid=grid)

    def setup_method(self):
        self.kernel = Kernel("k", func=lambda ctx: None)

    def test_signature_differs_by_shape(self):
        assert task_signature(self._task(n=32), 4) != task_signature(
            self._task(n=64), 4
        )

    def test_signature_differs_by_device_count(self):
        t = self._task()
        assert task_signature(t, 2) != task_signature(t, 4)

    def test_same_shape_datums_share_a_signature(self):
        assert task_signature(self._task(name="A"), 4) == task_signature(
            self._task(name="B"), 4
        )

    def test_signature_differs_by_dtype(self):
        k = self.kernel
        t32 = Task(k, [Window2D(Matrix(32, 32, np.int32, "a"), 1),
                       StructuredInjective(Matrix(32, 32, np.int32, "b"))])
        t8 = Task(k, [Window2D(Matrix(32, 32, np.uint8, "a"), 1),
                      StructuredInjective(Matrix(32, 32, np.int32, "b"))])
        assert task_signature(t32, 4) != task_signature(t8, 4)

    def test_signature_differs_by_pattern_params(self):
        k = self.kernel
        a = Matrix(32, 32, np.int32, "a")
        b = Matrix(32, 32, np.int32, "b")
        r1 = Task(k, [Window2D(a, 1), StructuredInjective(b)])
        r2 = Task(k, [Window2D(a, 2), StructuredInjective(b)])
        assert task_signature(r1, 4) != task_signature(r2, 4)

    def test_signature_differs_by_device_tuple(self):
        t = self._task()
        assert task_signature(t, (0, 1)) != task_signature(t, (2, 3))

    def test_signature_stable_for_same_task(self):
        t = self._task()
        assert task_signature(t, 4) == task_signature(t, 4)

    def test_new_shape_gets_new_plan(self):
        """Submitting a reshaped workload mid-stream must not replay the
        old plan (and must still be correct)."""
        node = SimNode(GTX_780, 4, functional=True)
        sched = Scheduler(node)
        k = make_gol_kernel()
        rng = np.random.default_rng(7)
        pairs = []
        for n in (32, 48):
            board = (rng.random((n, n)) < 0.35).astype(np.uint8)
            a = Matrix(n, n, np.uint8, f"A{n}").bind(board.copy())
            b = Matrix(n, n, np.uint8, f"B{n}").bind(np.zeros((n, n), np.uint8))
            sched.analyze_call(k, *gol_containers(a, b))
            pairs.append((a, b))
        for a, b in pairs:
            sched.invoke(k, *gol_containers(a, b))
            sched.invoke(k, *gol_containers(a, b))  # second submit: a hit
        assert sched.plans.stats["plans"] == 2
        assert sched.plans.stats["misses"] == 2
        assert sched.plans.stats["hits"] == 2
        for a, b in pairs:
            sched.gather(b)
            ref_in = a.host
            n = ref_in.shape[0]
            assert b.host.shape == (n, n)


class TestWaitHandle:
    def test_wait_runs_only_until_handle(self):
        """``wait(handle)`` drains the simulation just far enough to record
        the handle's completion events; later-submitted work stays queued."""
        node = SimNode(GTX_780, 2, functional=True)
        sched = Scheduler(node)
        k = make_gol_kernel()
        n = 32
        rng = np.random.default_rng(5)
        mats = []
        for name in ("P", "Q"):
            src = Matrix(n, n, np.uint8, f"{name}s").bind(
                (rng.random((n, n)) < 0.35).astype(np.uint8)
            )
            dst = Matrix(n, n, np.uint8, f"{name}d").bind(
                np.zeros((n, n), np.uint8)
            )
            sched.analyze_call(k, *gol_containers(src, dst))
            mats.append((src, dst))
        h1 = sched.invoke(k, *gol_containers(*mats[0]))
        h2 = sched.invoke(k, *gol_containers(*mats[1]))
        t = sched.wait(h1)
        assert all(ev.recorded for ev in h1.events)
        assert not all(ev.recorded for ev in h2.events)
        # The partial drain cannot run past the node clock (host submission
        # time may already exceed the simulated completion of h1).
        assert t <= node.time
        sched.wait_all()
        assert all(ev.recorded for ev in h2.events)


class TestInCorePath:
    """Count gates on the no-pressure, no-alarm invoke (precedent:
    ``tests/server/test_pick_oracle.py``)."""

    @staticmethod
    def gol(node, n=64):
        sched = Scheduler(node)
        a = Matrix(n, n, np.uint8, "A")
        b = Matrix(n, n, np.uint8, "B")
        k = make_gol_kernel()
        ping, pong = gol_containers(a, b), gol_containers(b, a)
        sched.analyze_call(k, *ping)
        sched.analyze_call(k, *pong)
        return sched, lambda i: sched.invoke(k, *(ping if i % 2 == 0 else pong))

    def test_one_allocation_pass_per_invoke(self, monkeypatch):
        # A cached, timing-only GoL invoke on 4 GPUs asks the analyzer for
        # no buffer once its submission is bound: the record's buffers
        # stand in for the 2 x 4 calls of the allocation pass.
        sched, invoke = self.gol(SimNode(GTX_780, 4, functional=False))
        for i in range(2):  # build both plans and allocate every buffer
            invoke(i)
        sched.wait_all()
        calls = 0
        buffer = MemoryAnalyzer.buffer

        def counting(self, datum, device):
            nonlocal calls
            calls += 1
            return buffer(self, datum, device)

        monkeypatch.setattr(MemoryAnalyzer, "buffer", counting)
        invoke(0)
        assert sched.plans.hits >= 1
        assert calls == 0

    def test_steady_node_eager_loop_counts(self, monkeypatch):
        # The node_eager mix, timing-only: a steady invoke builds no task
        # signature, and asks the analyzer for at most one buffer per
        # active device (the histogram gathers' partials, here).
        import repro.core.plan as plan_mod
        from repro.kernels.histogram import histogram_grid
        from repro.libs.cublas import make_sgemm_routine, sgemm_containers

        node = SimNode(GTX_780, 4, functional=False)
        sched = Scheduler(node)
        n = 1024
        boards = [Matrix(n, n, np.uint8, "A"), Matrix(n, n, np.uint8, "B")]
        image = Matrix(n, n, np.uint8, "image")
        hist = Vector(256, np.int32, "hist")
        bmat = Matrix(n, n, np.float32, "gemm.B")
        xs = [Matrix(n, n, np.float32, "X"), Matrix(n, n, np.float32, "Y")]
        gol, hk, gemm = (make_gol_kernel(), make_histogram_kernel("maps"),
                         make_sgemm_routine())
        grid = histogram_grid(image)
        hargs = histogram_containers(image, hist)
        sched.analyze_call(gol, *gol_containers(*boards))
        sched.analyze_call(gol, *gol_containers(*boards[::-1]))
        sched.analyze_call(hk, *hargs, grid=grid)
        sched.analyze_call(gemm, *sgemm_containers(xs[0], bmat, xs[1]))
        sched.analyze_call(gemm, *sgemm_containers(xs[1], bmat, xs[0]))

        def step(i):
            sched.invoke(gol, *gol_containers(boards[i % 2], boards[1 - i % 2]))
            sched.invoke(hk, *hargs, grid=grid)
            if i % 10 == 9:
                sched.gather(hist)
            sched.invoke_unmodified(
                gemm, *sgemm_containers(xs[i % 2], bmat, xs[1 - i % 2]))

        for i in range(3):  # warm-up lap: plans, buffers and records
            step(i)
        sched.wait_all()
        counts = {"buffer": 0, "signature": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MemoryAnalyzer, "buffer",
                            counting("buffer", MemoryAnalyzer.buffer))
        monkeypatch.setattr(plan_mod, "task_signature", counting(
            "signature", plan_mod.task_signature))
        invokes = 3 * 40
        for i in range(3, 43):
            step(i)
        sched.wait_all()
        assert counts["signature"] == 0
        assert counts["buffer"] <= len(sched.alive_devices) * invokes
        assert counts["buffer"] == 4 * 4  # four gathers, four partials each
        # Every record has compiled its calls by now (DESIGN.md §7
        # "Compiled calls"): a steady invoke neither replays nor plans or
        # enqueues a copy through the replay's methods. A gather keeps its
        # own path, counted apart.
        from repro.core.scheduler import Scheduler as S

        calls = dict.fromkeys(("replay", "copy_ops", "enqueue_copy"), 0)
        gathers = dict.fromkeys(("copy_ops", "enqueue_copy"), 0)
        gathering = [False]

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                (gathers if gathering[0] else calls)[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def in_gather(fn):
            def wrapper(*args, **kwargs):
                gathering[0] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    gathering[0] = False
            return wrapper

        monkeypatch.setattr(S, "_replay", spy("replay", S._replay))
        monkeypatch.setattr(S, "_copy_ops", spy("copy_ops", S._copy_ops))
        monkeypatch.setattr(S, "_enqueue_copy",
                            spy("enqueue_copy", S._enqueue_copy))
        monkeypatch.setattr(S, "_gather_events", in_gather(S._gather_events))
        for i in range(43, 83):
            step(i)
        sched.wait_all()
        assert calls == {"replay": 0, "copy_ops": 0, "enqueue_copy": 0}
        # The histogram's gathers aggregate its partials: no segment copy.
        assert gathers == {"copy_ops": 0, "enqueue_copy": 0}

    def test_steady_loop_invokes_check_no_plan(self, monkeypatch):
        # The analyzed-box check runs only for an invoke with no valid
        # bound record: once per call of a GoL ping-pong, then never.
        import repro.core.scheduler as sched_mod
        from repro.kernels.game_of_life import gol_loop

        node = SimNode(GTX_780, 4, functional=False)
        sched = Scheduler(node)
        loop = gol_loop(sched, Matrix(64, 64, np.uint8, "A"),
                        Matrix(64, 64, np.uint8, "B"))
        checks = 0
        check_plan = sched_mod.check_plan

        def counting(*args):
            nonlocal checks
            checks += 1
            return check_plan(*args)

        monkeypatch.setattr(sched_mod, "check_plan", counting)
        loop.warm_up(0)
        assert checks == loop.period == 2
        checks = 0
        for i in range(2, 102):
            loop.step(i)
        sched.wait_all()
        assert checks == 0

    def test_unarmed_scheduler_has_no_mitigator(self):
        node = SimNode(GTX_780, 4, functional=False)
        sched, invoke = self.gol(node)
        invoke(0)
        sched.wait_all()
        assert sched._mitigator is None
        assert node.engine.observer is None

    def test_wait_bounds_the_submission_log(self):
        # Each wait drains everything, so the log keeps only the latest
        # producer of each board; the waited handle is no longer listed.
        sched, invoke = self.gol(SimNode(GTX_780, 4, functional=False))
        for i in range(2000):
            h = invoke(i)
            sched.wait(h)
        assert len(sched._log) <= 2
        assert h not in sched.handles


class TestTransitionMemoization:
    def test_replay_resolves_events_positionally(self):
        """Regression: state ids key on geometry only, so a transition
        recorded on a fresh datum (host event None) may replay on an
        aggregated datum whose host instance carries the aggregation
        event. The replayed template must preserve that event — baking
        event *values* into templates loses the aggregation dependency."""
        mon = LocationMonitor()
        a = Matrix(8, 8, np.int32, "fresh")
        b = Matrix(8, 8, np.int32, "aggregated")
        rect = Rect((0, 4), (0, 8))
        # Record the transition on the fresh datum.
        assert mon.fingerprint(a) is not None
        mon.mark_copied(a, 0, rect, Event("copy_a"))
        assert mon.transition_misses == 1
        # Same geometry, different provenance: host instance has an event.
        agg_ev = Event("aggregate")
        mon.mark_aggregated(b, agg_ev)
        assert mon.fingerprint(b) is not None
        copy_ev = Event("copy_b")
        mon.mark_copied(b, 0, rect, copy_ev)
        assert mon.transition_hits == 1  # replayed, not recomputed
        host_events = [i.event for i in mon._st(b).up_to_date[HOST]]
        assert host_events == [agg_ev]
        dev_events = [i.event for i in mon._st(b).up_to_date[0]]
        assert copy_ev in dev_events

    def test_amortize_off_never_memoizes(self):
        mon = LocationMonitor()
        mon.amortize = False
        a = Matrix(8, 8, np.int32, "a")
        rect = Rect((0, 4), (0, 8))
        mon.fingerprint(a)
        mon.mark_copied(a, 0, rect, Event("e"))
        mon.mark_copied(a, 1, rect, Event("e2"))
        assert mon.transition_hits == 0
        assert mon.transition_misses == 0
        assert not mon._transitions


# -- pre-bound invokes (DESIGN.md §7) -----------------------------------------
class Rebinds:
    """Counts bound records rebuilt under a key that already had one: a
    record whose buffers, devices or weights went stale."""

    def __init__(self, monkeypatch):
        import repro.core.scheduler as sched_mod

        self.binds = self.rebinds = 0
        put = sched_mod.bounded_put

        def counting(table, key, value):
            self.binds += 1
            self.rebinds += key in table
            put(table, key, value)

        monkeypatch.setattr(sched_mod, "bounded_put", counting)


def run_mix(plan_cache, faults=None, capacity=None, auto=False, n=64,
            iters=8, gemm=True):
    """GoL ping-pong, a histogram and (with ``gemm``) a chained SGEMM,
    gathered every other iteration; ``auto`` skips AnalyzeCall
    (``auto_analyze``)."""
    import dataclasses

    from repro.kernels.histogram import histogram_grid
    from repro.libs.cublas import make_sgemm_routine, sgemm_containers

    spec = GTX_780 if capacity is None else dataclasses.replace(
        GTX_780, global_memory_bytes=int(capacity)
    )
    node = SimNode(spec, 4, functional=True, faults=faults)
    sched = Scheduler(node, plan_cache=plan_cache, auto_analyze=auto)
    rng = np.random.default_rng(4)
    boards = [
        Matrix(n, n, np.uint8, "A").bind(
            (rng.random((n, n)) < 0.35).astype(np.uint8)),
        Matrix(n, n, np.uint8, "B").bind(np.zeros((n, n), np.uint8)),
    ]
    image = Matrix(n, n, np.uint8, "image").bind(
        rng.integers(0, 256, (n, n)).astype(np.uint8))
    hist = Vector(256, np.int32, "hist").bind(np.zeros(256, np.int32))
    bmat = Matrix(n, n, np.float32, "gemm.B").bind(
        (rng.standard_normal((n, n)) / n).astype(np.float32))
    xs = [
        Matrix(n, n, np.float32, "X").bind(
            rng.standard_normal((n, n)).astype(np.float32)),
        Matrix(n, n, np.float32, "Y").bind(np.zeros((n, n), np.float32)),
    ]
    gol, hk = make_gol_kernel(), make_histogram_kernel("maps")
    routine = make_sgemm_routine() if gemm else None
    grid = histogram_grid(image)
    hargs = histogram_containers(image, hist)
    if not auto:
        sched.analyze_call(gol, *gol_containers(*boards))
        sched.analyze_call(gol, *gol_containers(*boards[::-1]))
        sched.analyze_call(hk, *hargs, grid=grid)
        if gemm:
            sched.analyze_call(routine, *sgemm_containers(xs[0], bmat, xs[1]))
            sched.analyze_call(routine, *sgemm_containers(xs[1], bmat, xs[0]))
    for i in range(iters):
        sched.invoke(gol, *gol_containers(boards[i % 2], boards[1 - i % 2]))
        sched.invoke(hk, *hargs, grid=grid)
        if gemm:
            sched.invoke_unmodified(
                routine, *sgemm_containers(xs[i % 2], bmat, xs[1 - i % 2]))
            if i % 2:
                sched.gather_async(xs[1 - i % 2])
        if i % 2:
            sched.gather_async(boards[1 - i % 2])
            sched.gather(hist)
    last = iters % 2
    outs = [boards[last], hist] + ([xs[last]] if gemm else [])
    for d in outs:
        sched.gather_async(d)
    sched.wait_all()
    outs = [d.host.copy() for d in outs]
    return outs, node, sched


class Counts:
    """Counts ``Task.__init__`` and ``task_signature`` runs."""

    def __init__(self, monkeypatch):
        import repro.core.plan as plan_mod

        self.tasks = self.signatures = 0
        init, signature = Task.__init__, plan_mod.task_signature

        def counting_init(task, *args, **kwargs):
            self.tasks += 1
            init(task, *args, **kwargs)

        def counting_signature(*args, **kwargs):
            self.signatures += 1
            return signature(*args, **kwargs)

        monkeypatch.setattr(Task, "__init__", counting_init)
        monkeypatch.setattr(plan_mod, "task_signature", counting_signature)

    def take(self) -> tuple[int, int]:
        out = (self.tasks, self.signatures)
        self.tasks = self.signatures = 0
        return out


def run_leases(plan_cache, counts=None, faults=None, retire=None, n=64,
               iters=6, leases=2):
    """``leases`` leases on one node, as the job server runs them: each
    binds fresh datums to the host arrays, declares a GoL ping-pong and a
    histogram on a fresh scheduler, runs ``iters`` iterations (draining
    after every other one), gathers and releases. Each lease continues
    from the last one's boards; ``retire`` retires that device in the
    second lease, after its analysis. Returns
    the outputs, the node, each lease's datum ids and, with ``counts``,
    each lease's ``(tasks, signatures)``."""
    from repro.core import recovery
    from repro.core.graph import Call, Loop
    from repro.kernels.histogram import histogram_grid

    node = SimNode(GTX_780, 4, functional=True, faults=faults)
    rng = np.random.default_rng(5)
    hosts = [(rng.random((n, n)) < 0.35).astype(np.uint8),
             np.zeros((n, n), np.uint8)]
    pixels = rng.integers(0, 256, (n, n)).astype(np.uint8)
    gol, hk = make_gol_kernel(), make_histogram_kernel("maps")
    outs, ids, per_lease = [], [], []
    for lease in range(leases):
        a = Matrix(n, n, np.uint8, "A").bind(hosts[0])
        b = Matrix(n, n, np.uint8, "B").bind(hosts[1])
        image = Matrix(n, n, np.uint8, "image").bind(pixels)
        hist = Vector(256, np.int32, "hist").bind(np.zeros(256, np.int32))
        ids.append({id(d) for d in (a, b, image, hist)})
        sched = Scheduler(node, plan_cache=plan_cache)
        loop = Loop.declare(sched, [
            Call(gol, gol_containers(a, b)),
            Call(gol, gol_containers(b, a)),
        ])
        hargs = histogram_containers(image, hist)
        grid = histogram_grid(image)
        sched.analyze_call(hk, *hargs, grid=grid)
        if lease == 1 and retire is not None:
            recovery.recover(sched, retire, node.time)
        for i in range(iters):
            loop.step(i)
            sched.invoke(hk, *hargs, grid=grid)
            if i % 2:
                sched.wait_all()
        sched.gather(loop.out(iters - 1))
        sched.gather(hist)
        outs += [hosts[iters % 2].copy(), hist.host.copy()]
        if counts is not None:
            per_lease.append(counts.take())
        sched.release()
        del a, b, image, hist, sched, loop, hargs
    return outs, node, ids, per_lease

class TestPreBinding:
    """Every way a bound record goes stale forces the rebind path, and
    the run stays bit-identical to ``plan_cache=False``. So do a lease's
    calls bound from the node's call templates (DESIGN.md §7); a template
    answers only for the alive set and weights it was made under, and
    otherwise ``plans.lookup`` runs."""

    @staticmethod
    def check(monkeypatch, **kw):
        ref, ref_node, _ = run_mix(False, **kw)
        counter = Rebinds(monkeypatch)
        out, node, sched = run_mix(True, **kw)
        for a, b in zip(out, ref):
            assert a.tobytes() == b.tobytes()
        assert node.time == ref_node.time
        assert normalized_trace(node) == normalized_trace(ref_node)
        assert node.engine.commands_executed == \
            ref_node.engine.commands_executed
        assert counter.rebinds >= 1
        return sched

    def test_steady_invokes_bind_nothing_after_the_first_lap(
        self, monkeypatch
    ):
        # Five submission shapes (two GoL, the histogram, two SGEMM). The
        # first lap's later allocations stale two earlier records once;
        # after that no invoke binds again.
        counts = []
        for iters in (3, 12):
            counter = Rebinds(monkeypatch)
            run_mix(True, iters=iters)
            counts.append((counter.binds, counter.rebinds))
        assert counts[0] == counts[1] == (7, 2)

    @pytest.mark.parametrize("factor", [0.75, 0.3])
    def test_eviction_under_pressure(self, monkeypatch, factor):
        # Capacity at a fraction of the in-core working set (SGEMM's
        # chunk-invariant B does not fit, so the mix is GoL and the
        # histogram). At 0.75x replicas are evicted between invokes and
        # each eviction stales the records; at 0.3x every device runs
        # out of core, and a chunked task binds nothing.
        _, node, _ = run_mix(False, gemm=False, n=256)
        peak = max(d.memory.peak for d in node.devices)
        kw = dict(capacity=factor * peak, gemm=False, n=256)
        if factor < 0.5:
            ref, ref_node, _ = run_mix(False, **kw)
            counter = Rebinds(monkeypatch)
            out, node, _ = run_mix(True, **kw)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in ref]
            assert normalized_trace(node) == normalized_trace(ref_node)
            assert node.trace.matching("#chunk")
            assert counter.binds == 0
            return
        sched = self.check(monkeypatch, **kw)
        assert sched.node.trace.matching("evict:")

    def test_box_growth_under_auto_analyze(self, monkeypatch):
        self.check(monkeypatch, auto=True)

    def test_injected_allocation_failure_retires_a_device(self, monkeypatch):
        from repro.sim import AllocFailure, FaultPlan

        sched = self.check(monkeypatch, faults=FaultPlan(
            alloc_failures=[AllocFailure(device=1, nth_alloc=6)]
        ))
        assert sched.alive_devices == (0, 2, 3)

    def test_straggler_reweighting(self, monkeypatch):
        from repro.sim import FaultPlan, Straggler

        sched = self.check(monkeypatch, n=256, faults=FaultPlan(
            stragglers=[Straggler(device=1, compute_factor=4.0)],
            mitigate_stragglers=True,
        ))
        assert sched._weights is not None

    def test_leases_reuse_freed_datum_ids(self, monkeypatch):
        # Every lease builds a scheduler and binds fresh datums; a freed
        # datum's id is often taken by the next lease's. Records hold
        # their datums, so an id match alone never replays a record.
        from tests.server.test_plan_sharing import (
            UncachedScheduler,
            observables,
            run,
            specs,
        )

        import weakref

        seen: dict[int, set[int]] = {}
        lease = [0, lambda: None]  # ordinal, weakref to its scheduler

        class Spy(Scheduler):
            def _submit(self, kernel, containers, grid, constants):
                if lease[1]() is not self:
                    lease[:] = [lease[0] + 1, weakref.ref(self)]
                for c in containers:
                    seen.setdefault(id(c.datum), set()).add(lease[0])
                return super()._submit(kernel, containers, grid, constants)

        oracle_srv, oracle = run(
            monkeypatch, UncachedScheduler, specs(2, n=60, faults=False))
        srv, jobs = run(monkeypatch, Spy, specs(2, n=60, faults=False))
        assert observables(srv, jobs) == observables(oracle_srv, oracle)
        assert any(len(owners) > 1 for owners in seen.values())
        for a, b in zip(jobs, oracle):
            assert np.array_equal(a.spec.workload.result(),
                                  b.spec.workload.result())

    def test_record_answers_only_for_its_alive_set(self):
        # A 16-row board runs on device 0 only, so retiring device 3
        # leaves its plan cached; the record must still not answer for
        # the new alive set, whose signature names another plan.
        from repro.core import recovery

        node = SimNode(GTX_780, 4, functional=False)
        sched = Scheduler(node)
        a, b = Matrix(16, 16, np.uint8, "A"), Matrix(16, 16, np.uint8, "B")
        k = make_gol_kernel()
        ping, pong = gol_containers(a, b), gol_containers(b, a)
        sched.analyze_call(k, *ping)
        sched.analyze_call(k, *pong)
        for c in (ping, pong, ping):
            sched.invoke(k, *c)
        sched.wait_all()
        plan = sched._prebound[next(iter(sched._prebound))].plan
        assert plan.active == (0,)
        recovery.recover(sched, 3, node.time)
        assert plan.cached and sched.alive_devices == (0, 1, 2)
        misses = sched.plans.misses
        sched.invoke(k, *pong)
        assert sched.plans.misses == misses + 1

    @staticmethod
    def check_leases(monkeypatch, **kw):
        ref, ref_node, _, _ = run_leases(False, **kw)
        counts = Counts(monkeypatch)
        out, node, ids, per_lease = run_leases(True, counts, **kw)
        for x, y in zip(out, ref):
            assert x.tobytes() == y.tobytes()
        assert node.time == ref_node.time
        assert normalized_trace(node) == normalized_trace(ref_node)
        assert node.engine.commands_executed == \
            ref_node.engine.commands_executed
        return node, ids, per_lease

    def test_released_leases_share_a_call_template(self, monkeypatch):
        node, ids, per_lease = self.check_leases(monkeypatch, leases=6)
        # Two call shapes (the ping and the pong share one): the first
        # lease builds a task and a signature for each, later leases
        # neither, though freed datums' ids are taken by their own.
        assert len(node.plan_tables.templates) == 2
        assert per_lease == [(2, 2)] + [(0, 0)] * 5
        assert any(ids[i] & set().union(*ids[:i]) for i in range(1, 6))

    def test_template_under_reweighting_falls_back_to_lookup(
        self, monkeypatch
    ):
        from repro.sim import FaultPlan, Straggler

        faults = FaultPlan(
            stragglers=[Straggler(device=1, compute_factor=4.0)],
            mitigate_stragglers=True,
        )
        node, _, per_lease = self.check_leases(monkeypatch, n=256,
                                               faults=faults)
        # The second lease re-weights: its re-analysis takes the plans
        # under the new weights from the call templates the first lease's
        # re-weighting made, so its invokes look them up by the template
        # plans' signatures, building no task and computing no signature.
        # The plans under the new weights carry them in their key.
        assert per_lease[1] == (0, 0)
        assert any(len(sig) == 6 for sig in node.plan_tables.plans)

    def test_template_of_a_retired_device_falls_back_to_lookup(
        self, monkeypatch
    ):
        # Retiring a device after the second lease's analysis: its
        # templates were made for all four devices, so the recovery's
        # re-analysis makes the survivors' templates (computing their
        # signatures), whose plans its invokes look up.
        node, _, per_lease = self.check_leases(monkeypatch, retire=3)
        assert per_lease[1][0] == 0 and per_lease[1][1] > 0
        assert {t.plan.devices for t in node.plan_tables.templates.values()} \
            == {(0, 1, 2, 3), (0, 1, 2)}
