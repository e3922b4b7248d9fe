"""Replica model engines (DESIGN.md §14).

A *replica* is one device's copy of a model, hosted behind the dynamic
batcher. Two engines are served:

* :class:`LeNetEngine` — the Fig. 10 CNN, forward pass only: the
  data-parallel form of :class:`repro.apps.lenet.inference.LeNetForward`,
  declared as a loop of its calls, each on its own grid; ``infer`` is
  the same ``Loop.run`` as the trainer's ``forward_batch``;
* :class:`SgemmEngine` — a chained small-SGEMM microservice (an
  ``layers``-deep stack of ``X @ B`` ping-pongs through *unmodified*
  CUBLAS, §4.6), declared by :func:`repro.libs.cublas.sgemm_chain`, the
  benches' and the job server's SGEMM chain.

Each engine declares its calls as one :class:`~repro.core.graph.Loop`
and serves a batch as one :meth:`Loop.run <repro.core.graph.Loop.run>`
transition: the input upload, every layer and the gather of the result.
The first serve of an engine runs eagerly, the second is captured as an
iteration graph (DESIGN.md §12), and every later serve is one graph
launch, not ``layers`` scheduler invocations.

Both engines run every batch at one **fixed padded shape**. That is the
load-bearing invariant of the serving layer: identical call shapes mean
identical task plans and identical per-row arithmetic, so a request's
result is bitwise independent of its batch-mates and of the replica that
served it (replicas of one model share the same seeded weights). The
batcher and autoscaler may therefore change *latency* freely without
ever changing *answers*.
"""

from __future__ import annotations

import numpy as np

from repro.apps.lenet.inference import LeNetForward
from repro.apps.lenet.network import LeNetParams
from repro.core import Datum, Scheduler
from repro.core.graph import Loop
from repro.libs.cublas import sgemm_chain
from repro.serving.trace import Request


class LeNetEngine:
    """LeNet-inference replica engine at a fixed batch shape.

    Args:
        sched: The replica's (device-restricted) scheduler.
        batch: Fixed engine batch shape (the batcher's ``max_batch``).
        model_seed: Weight seed — all replicas of the service use the
            same seed, so any replica answers any request identically.
    """

    kind = "lenet"

    def __init__(self, sched: Scheduler, batch: int, model_seed: int = 0):
        if batch < 1:
            raise ValueError("need batch >= 1")
        self.sched = sched
        self.batch = int(batch)
        self.params = LeNetParams.initialize(model_seed)
        self._model_seed = model_seed
        self.forward = LeNetForward(self.params, self.batch)
        self.loop = Loop.declare(sched, self.forward.calls)

    def _input_for(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal((1, 28, 28)).astype(np.float32)

    def infer(self, images: np.ndarray) -> np.ndarray:
        """Run one padded batch; returns the ``(batch, 10)`` logits.

        ``images`` may hold fewer than ``batch`` samples; the remainder is
        zero-padded (rows beyond ``images.shape[0]`` of the result are the
        padding's logits)."""
        k = images.shape[0]
        if k > self.batch:
            raise ValueError(
                f"batch of {k} exceeds the engine's fixed shape {self.batch}"
            )
        fwd = self.forward
        fwd.x0.host[:k] = images
        fwd.x0.host[k:] = 0.0
        self.loop.run(0, self.loop.period, marks=(fwd.x0,), gathers=(None,))
        return fwd.logits.host.copy()

    def serve(self, requests: list[Request]) -> list[np.ndarray]:
        """Answer up to ``batch`` requests in one padded invocation;
        returns one ``(10,)`` logits vector per request."""
        images = np.stack([self._input_for(r.seed) for r in requests])
        logits = self.infer(images)
        return [logits[i].copy() for i in range(len(requests))]

    def warmup(self) -> None:
        """One padded dummy batch: pays weight distribution + plan
        analysis so the first real request doesn't."""
        dummy = Request(
            rid=-1, kind=self.kind, arrival=0.0, seed=self._model_seed
        )
        self.serve([dummy])


class SgemmEngine:
    """Chained-SGEMM microservice replica engine at a fixed batch shape.

    Each request is a ``(size,)`` feature row; a batch ``X`` of them is
    pushed through ``layers`` ping-pong GEMMs (``Y = X @ B``,
    ``X = Y @ B``, ...) against a fixed seeded ``(size, size)`` weight
    matrix ``B`` scaled by ``1/sqrt(size)`` so magnitudes stay bounded.
    ``layers`` must be even: the result lands back in ``X``.

    A serve drains once after the first ping-pong pair, which absorbs
    the new batch's host-to-device upload (``Loop.run``'s host sync).
    Zero-padding rows is arithmetically inert here (``0 @ B == 0``) and
    keeps the GEMM shape — and therefore the BLAS blocking and per-row
    summation order — identical across batch occupancies.
    """

    kind = "sgemm"

    def __init__(
        self,
        sched: Scheduler,
        batch: int,
        size: int = 96,
        layers: int = 6,
        model_seed: int = 0,
    ):
        if layers < 2 or layers % 2:
            raise ValueError(
                "layers must be even and >= 2 (the result lands back in "
                "X after each X/Y ping-pong pair)"
            )
        self.sched = sched
        self.batch = int(batch)
        self.size = int(size)
        self.layers = int(layers)
        self._model_seed = model_seed
        rng = np.random.default_rng(model_seed)
        b_host = (
            rng.standard_normal((size, size)).astype(np.float32)
            / np.float32(np.sqrt(size))
        )
        self._x_host = np.zeros((self.batch, size), np.float32)
        self._x = Datum((self.batch, size), np.float32, "serve.X").bind(
            self._x_host
        )
        self._y = Datum((self.batch, size), np.float32, "serve.Y").bind(
            np.zeros((self.batch, size), np.float32)
        )
        b = Datum((size, size), np.float32, "serve.B").bind(b_host)
        self.loop = sgemm_chain(sched, self._x, b, self._y)

    def _input_for(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.size).astype(np.float32)

    def _load(self, requests: list[Request]) -> int:
        """Write the padded batch into the host input; returns its size."""
        k = len(requests)
        if k > self.batch:
            raise ValueError(
                f"batch of {k} exceeds the engine's fixed shape "
                f"{self.batch}"
            )
        for i, r in enumerate(requests):
            self._x_host[i] = self._input_for(r.seed)
        if k < self.batch:
            self._x_host[k:] = 0.0
        return k

    def serve(self, requests: list[Request]) -> list[np.ndarray]:
        """Answer up to ``batch`` requests in one padded chained-GEMM
        run; returns one ``(size,)`` feature vector per request."""
        k = self._load(requests)
        self.loop.run(
            0, self.layers, marks=(self._x,), syncs=(2,), gathers=(None,)
        )
        out = self._x.host
        return [out[i].copy() for i in range(k)]

    def warmup(self) -> None:
        """One padded dummy batch: pays weight/input distribution and plan
        analysis. It runs eagerly, outside the serve graph, and drains
        after each of its first two ping-pong pairs; that timeline is the
        replica's calibrated provisioning time (``BENCH_serving.json``)."""
        loop = self.loop
        self._load([Request(
            rid=-1, kind=self.kind, arrival=0.0, seed=self._model_seed
        )])
        self.sched.mark_host_dirty(self._x)
        for start in range(0, min(4, self.layers), 2):
            loop.warm_up(start)
        for i in range(4, self.layers):
            loop.step(i)
        self.sched.gather(self._x)
