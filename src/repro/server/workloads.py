"""Checkpointable iterative workloads for the job server (DESIGN.md §13).

A :class:`Workload` owns *host-resident* state that is, at every
checkpoint boundary, a complete description of the computation so far —
the job server's preemption model is exactly "the host arrays plus an
iteration counter *are* the checkpoint". The contract:

* :meth:`bind` attaches fresh datums (bound to the persistent host
  arrays) to a scheduler and declares their :class:`~repro.core.graph.Loop`
  (one steady period of calls, analyzed once). It is called once per
  *lease*; after a preemption the next lease's scheduler
  re-uploads from host and continues from ``completed`` iterations. The
  plans, call templates and monitor transitions are geometry-keyed
  tables on the node (DESIGN.md §7), so every lease, job
  and replica replays those an earlier lease built: after the first
  lease of a call shape, a lease's ``AnalyzeCall``s and first invokes
  build no ``Task`` and compute no plan signature. A lease re-does only
  the per-datum work: its datums and streams, analyzed boxes and
  allocations, residency, and one box check per distinct submission it
  makes. Each ``bind`` declares its loop
  with the kind's one builder, which sits next to the kernel it wraps
  (:func:`~repro.kernels.game_of_life.gol_loop`,
  :func:`~repro.kernels.histogram.histogram_loop`,
  :func:`~repro.libs.cublas.sgemm_chain`; the benches call the same
  ones) and hands every lease the same kernel object: plans are keyed by
  kernel identity, and a kernel per job would split them per job.
* :meth:`run_chunk` advances up to ``checkpoint_every`` iterations and
  gathers results back, leaving host state checkpoint-complete again.
  The base method steps the loop and gathers every iteration's output.
  Preemption happens only between chunks, so nothing in flight is lost.
* :meth:`result` returns the output array; :meth:`reference` computes the
  same thing with plain numpy. Every payload is a pure function of host
  state, so a preempted-and-resumed run is bit-identical to a solo run —
  the resume costs extra H2D distribution (the measured preemption
  overhead), never different numbers.

Three app families cover the paper's pattern spectrum: Game of Life
(Window stencil), histogram (Window + ReductiveStatic), and a chained
SGEMM over the unmodified-CUBLAS path (Block patterns). Every lease runs
its chunks eagerly, without an iteration graph (DESIGN.md §12): a graph
belongs to one scheduler, so each lease, a few short chunks, would pay a
capture of its own.
"""

from __future__ import annotations

import numpy as np

from repro.core import Matrix, Scheduler, Vector
from repro.core.graph import Loop
from repro.kernels.game_of_life import gol_loop, gol_reference_step
from repro.kernels.histogram import histogram_loop
from repro.libs.cublas import sgemm_chain


class Workload:
    """Base checkpointable workload (see module docstring)."""

    #: Kind tag for queue listings and JSON reports.
    kind = "workload"

    def __init__(self, iterations: int, checkpoint_every: int = 1):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.iterations = int(iterations)
        self.checkpoint_every = int(checkpoint_every)
        #: Iterations whose results are safely in host memory.
        self.completed = 0
        #: The current lease's loop, declared by :meth:`bind`; the server
        #: drops it when the lease ends.
        self.loop: Loop | None = None

    @property
    def finished(self) -> bool:
        return self.completed >= self.iterations

    # -- lease lifecycle ----------------------------------------------------
    def bind(self, sched: Scheduler) -> None:
        raise NotImplementedError

    def run_chunk(self, sched: Scheduler) -> int:
        """Advance up to ``checkpoint_every`` iterations; returns how many
        ran. Host state is checkpoint-complete on return."""
        k = min(self.checkpoint_every, self.iterations - self.completed)
        loop = self.loop
        for i in range(self.completed, self.completed + k):
            loop.step(i)
            sched.gather(loop.out(i))
            self.gathered(i)
        self.completed += k
        return k

    def gathered(self, i: int) -> None:
        """Hook run once iteration ``i``'s output is in host memory."""

    # -- results ------------------------------------------------------------
    def result(self) -> np.ndarray:
        raise NotImplementedError

    def reference(self) -> np.ndarray:
        """Plain-numpy recomputation of :meth:`result` (self-verification)."""
        raise NotImplementedError

    # -- admission estimate ---------------------------------------------------
    def min_device_bytes(self, gpus: int) -> int:
        """Irreducible per-device footprint in bytes: what even maximal
        out-of-core chunking (DESIGN.md §10) must keep resident. Admission
        control rejects a tenant whose memory quota cannot cover it."""
        return 0


class GoLWorkload(Workload):
    """Game of Life, one tick per iteration, ping-ponging two boards.

    Host state: ``boards[completed % 2]`` holds the current board. Both
    boards persist across leases; parity decides the invoke direction
    after a resume, so no copies are needed at checkpoint time.
    """

    kind = "gol"

    def __init__(
        self,
        size: int = 64,
        iterations: int = 8,
        checkpoint_every: int = 1,
        seed: int = 0,
    ):
        super().__init__(iterations, checkpoint_every)
        self.size = int(size)
        rng = np.random.default_rng(seed)
        self._initial = (rng.random((size, size)) < 0.35).astype(np.int32)
        self.boards = [self._initial.copy(), np.zeros_like(self._initial)]

    def bind(self, sched: Scheduler) -> None:
        a = Matrix(self.size, self.size, np.int32, "gol.A").bind(
            self.boards[0]
        )
        b = Matrix(self.size, self.size, np.int32, "gol.B").bind(
            self.boards[1]
        )
        self.loop = gol_loop(sched, a, b)

    def result(self) -> np.ndarray:
        return self.boards[self.completed % 2].copy()

    def reference(self) -> np.ndarray:
        board = self._initial.copy()
        for _ in range(self.iterations):
            board = gol_reference_step(board)
        return board

    def min_device_bytes(self, gpus: int) -> int:
        # Chunked replay stages a handful of block rows of each board;
        # 8 rows (with halo) of both boards is a conservative floor.
        return 2 * 8 * self.size * np.dtype(np.int32).itemsize


class HistogramWorkload(Workload):
    """256-bin histogram of a static image, accumulated over iterations.

    Each iteration histograms the image on the devices and the gathered
    result is added into a host accumulator — the accumulator plus
    ``completed`` is the checkpoint. (Every iteration produces the same
    histogram; the accumulation makes progress observable and keeps the
    checkpoint non-trivial.)
    """

    kind = "histogram"

    def __init__(
        self,
        size: int = 96,
        bins: int = 256,
        iterations: int = 6,
        checkpoint_every: int = 1,
        seed: int = 0,
    ):
        super().__init__(iterations, checkpoint_every)
        self.size = int(size)
        self.bins = int(bins)
        rng = np.random.default_rng(seed)
        self.image = rng.integers(
            0, bins, size=(size, size), dtype=np.int64
        ).astype(np.uint8)
        self.acc = np.zeros(bins, dtype=np.int64)
        self._hist_host = np.zeros(bins, dtype=np.int32)

    def bind(self, sched: Scheduler) -> None:
        image = Matrix(self.size, self.size, np.uint8, "hist.image").bind(
            self.image
        )
        hist = Vector(self.bins, np.int32, "hist.out").bind(self._hist_host)
        self.loop = histogram_loop(sched, image, hist)

    def gathered(self, i: int) -> None:
        self.acc += self._hist_host

    def result(self) -> np.ndarray:
        return self.acc.copy()

    def reference(self) -> np.ndarray:
        one = np.bincount(
            self.image.ravel().astype(np.int64), minlength=self.bins
        ).astype(np.int64)
        return one * self.iterations

    def min_device_bytes(self, gpus: int) -> int:
        # A few image block rows plus the 1 KiB partial histogram.
        return 8 * self.size + self.bins * np.dtype(np.int32).itemsize


class SgemmWorkload(Workload):
    """Chained SGEMM ``X <- X @ B`` over unmodified CUBLAS (§4.6).

    Host state: ``mats[completed % 2]`` holds the current X; ``B`` is
    static. ``B`` is scaled to unit spectral norm-ish magnitude so the
    chain stays bounded in float32.
    """

    kind = "sgemm"

    def __init__(
        self,
        size: int = 48,
        iterations: int = 4,
        checkpoint_every: int = 1,
        seed: int = 0,
    ):
        super().__init__(iterations, checkpoint_every)
        self.size = int(size)
        rng = np.random.default_rng(seed)
        self._x0 = rng.standard_normal((size, size)).astype(np.float32)
        self.b_host = (
            rng.standard_normal((size, size)).astype(np.float32) / size
        )
        self.mats = [self._x0.copy(), np.zeros_like(self._x0)]

    def bind(self, sched: Scheduler) -> None:
        x = Matrix(self.size, self.size, np.float32, "gemm.X").bind(
            self.mats[0]
        )
        y = Matrix(self.size, self.size, np.float32, "gemm.Y").bind(
            self.mats[1]
        )
        b = Matrix(self.size, self.size, np.float32, "gemm.B").bind(
            self.b_host
        )
        self.loop = sgemm_chain(sched, x, b, y)

    def result(self) -> np.ndarray:
        return self.mats[self.completed % 2].copy()

    def reference(self) -> np.ndarray:
        x = self._x0.copy()
        for _ in range(self.iterations):
            x = x @ self.b_host
        return x

    def min_device_bytes(self, gpus: int) -> int:
        # The Block2DTransposed operand (B) must be fully resident on
        # every participating device; X/C stream through in stripes.
        b_bytes = self.size * self.size * np.dtype(np.float32).itemsize
        stripe = 8 * self.size * np.dtype(np.float32).itemsize
        return b_bytes + 2 * stripe


#: Name -> factory, for the CLI's ``--jobs`` JSON and the bench.
WORKLOADS = {
    "gol": GoLWorkload,
    "histogram": HistogramWorkload,
    "sgemm": SgemmWorkload,
}
