"""Multi-GPU LeNet training over MAPS-Multi (§6.1, Fig. 10/11).

Two concurrency schemes, selected by ``mode``:

* ``"data"`` — pure data parallelism: every task is batch-partitioned;
  weight gradients are ``ReductiveStatic`` outputs whose aggregation and
  redistribution the framework infers (the per-iteration parameter
  exchange the paper describes as data parallelism's scaling limit).
* ``"hybrid"`` — Krizhevsky-style hybrid data/model parallelism: the
  convolution/pooling part stays data-parallel while the first (large)
  fully-connected layer is model-parallel — its weights live row-striped
  on the devices, never exchanged; instead the (smaller) activations are
  exchanged, automatically, because the model-parallel GEMM declares
  ``Block2DTransposed`` (full) input over batch-striped activations.

Switching schemes changes only which containers the fc1 tasks declare —
the paper's headline usability result (§6.1: "switching between data
parallelism and the hybrid approach in MAPS-Multi requires only a single
access pattern modification"). The forward half of an iteration is
:class:`~repro.apps.lenet.inference.LeNetForward`, the one declaration of
LeNet's forward pass, which the serving engine runs too; this module adds
the loss, the backward pass and the SGD updates.

The trainer runs on the scheduler it is given and declares one iteration
(28 calls in data mode, 32 in hybrid) once, as a
:class:`~repro.core.graph.Loop`: ``run_iteration`` submits its period,
``measure_iteration`` times steady periods (:meth:`Loop.measure
<repro.core.graph.Loop.measure>`), and ``forward_batch`` runs the
forward calls alone as one :meth:`Loop.run <repro.core.graph.Loop.run>`
transition, as the serving engine does. No iteration builds a container
or a grid.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.lenet import tasks as T
from repro.apps.lenet.inference import LeNetForward
from repro.apps.lenet.network import (
    CLASSES,
    CONV1_FILTERS,
    CONV2_FILTERS,
    FC1,
    FLAT,
    LeNetParams,
    PARAM_NAMES,
)
from repro.core import Datum, Grid, Scheduler
from repro.core.graph import Call, Loop
from repro.patterns import (
    Block2D,
    Block2DTransposed,
    BlockColumnStriped,
    BlockStriped,
    InjectiveColumnStriped,
    InjectiveStriped,
    ReductiveStatic,
    Replicated,
)


class MapsLeNetTrainer:
    """LeNet trainer on a simulated multi-GPU node.

    Args:
        sched: The node's scheduler (on a functional node for correctness
            runs, a timing-only one for throughput measurements).
        params: Initial host-side parameters (bound in functional mode).
        batch: Global batch size (the paper uses 2048).
        mode: ``"data"`` or ``"hybrid"``.
        lr: SGD learning rate.
    """

    def __init__(
        self,
        sched: Scheduler,
        params: LeNetParams,
        batch: int,
        mode: str = "data",
        lr: float = 0.05,
    ):
        if mode not in ("data", "hybrid"):
            raise ValueError(f"unknown parallelism mode {mode!r}")
        self.sched = sched
        self.node = sched.node
        self.params = params
        self.batch = batch
        self.mode = mode
        self.lr = lr
        self._build_datums()
        #: One training iteration, declared once: the forward pass, the
        #: loss, the backward pass and the SGD updates.
        self.loop = Loop.declare(sched, self._calls())

    # -- datum construction ------------------------------------------------------
    def _datum(self, name: str, shape, dtype=np.float32) -> Datum:
        d = Datum(shape, dtype, name)
        if self.node.functional:
            d.bind(np.zeros(shape, dtype))
        return d

    def _build_datums(self) -> None:
        b = self.batch
        self.fwd = LeNetForward(
            self.params, b, self.mode, bind=self.node.functional
        )
        self.labels = self._datum("labels", (b,), np.int32)
        self.dlogits = self._datum("dlogits", (b, CLASSES))
        self.loss = self._datum("loss", (1,))
        # Backward activations.
        self.dhr = self._datum("dhr", (b, FC1))
        self.dh = self._datum("dh", (b, FC1))
        self.df = self._datum("df", (b, FLAT))
        self.dp2 = self._datum("dp2", (b, CONV2_FILTERS, 4, 4))
        self.da2 = self._datum("da2", (b, CONV2_FILTERS, 8, 8))
        self.dp1 = self._datum("dp1", (b, CONV1_FILTERS, 12, 12))
        self.da1 = self._datum("da1", (b, CONV1_FILTERS, 24, 24))
        # Hybrid-mode transposed gradients.
        if self.mode == "hybrid":
            self.dhrT = self._datum("dhrT", (FC1, b))
            self.dhT = self._datum("dhT", (FC1, b))
            self.dfT = self._datum("dfT", (FLAT, b))
        # Parameters and gradients.
        self.p_datums = self.fwd.params
        self.g_datums = {
            name: self._datum("d" + name, arr.shape)
            for name, arr in self.params.items()
        }

    # -- the iteration -----------------------------------------------------------
    def _calls(self) -> list[Call]:
        """One iteration's calls, in dependency order."""
        conv_bwd_data = T.make_conv_bwd_data()
        conv_bwd_filter = T.make_conv_bwd_filter()
        pool_bwd = T.make_pool_bwd()
        fc_bwd_data = T.make_fc_bwd_data()
        fc_bwd_filter = T.make_fc_bwd_filter()
        softmax = T.make_softmax_loss()
        update = T.make_sgd_update()
        # Both modes run the ReLU backward as the striped-dim-0 routine.
        relu_bwd = T.make_mp_relu_bwd()
        b = self.batch
        bgrid = Grid((b,), block0=1)
        F, P, G = self.fwd, self.p_datums, self.g_datums
        calls = list(F.calls)

        def call(kernel, *containers, grid=bgrid, constants=None) -> None:
            calls.append(Call(kernel, containers, grid, constants))

        call(softmax, BlockStriped(F.logits), BlockStriped(self.labels),
             InjectiveStriped(self.dlogits), ReductiveStatic(self.loss),
             constants={"batch_total": b})
        call(fc_bwd_filter, BlockStriped(self.dlogits), BlockStriped(F.hr),
             ReductiveStatic(G["W4"]), ReductiveStatic(G["b4"]))
        call(fc_bwd_data, BlockStriped(self.dlogits), Replicated(P["W4"]),
             InjectiveStriped(self.dhr))
        if self.mode == "data":
            call(relu_bwd, BlockStriped(F.h), BlockStriped(self.dhr),
                 InjectiveStriped(self.dh))
            call(fc_bwd_filter, BlockStriped(self.dh), BlockStriped(F.f),
                 ReductiveStatic(G["W3"]), ReductiveStatic(G["b3"]))
            call(fc_bwd_data, BlockStriped(self.dh), Replicated(P["W3"]),
                 InjectiveStriped(self.df))
        else:
            fgrid = Grid((FC1,), block0=1)
            call(F.k_transpose, BlockStriped(self.dhr),
                 InjectiveColumnStriped(self.dhrT))
            call(relu_bwd, BlockStriped(F.hT), BlockStriped(self.dhrT),
                 InjectiveStriped(self.dhT), grid=fgrid)
            call(T.make_mp_fc_bwd_filter(), BlockStriped(self.dhT),
                 Block2DTransposed(F.fT), InjectiveStriped(G["W3"]),
                 InjectiveStriped(G["b3"]), grid=fgrid)
            call(T.make_mp_fc_bwd_data(), Block2D(P["W3"]),
                 BlockStriped(self.dhT), ReductiveStatic(self.dfT),
                 grid=fgrid)
            call(F.k_untranspose, BlockColumnStriped(self.dfT),
                 InjectiveStriped(self.df))
        call(F.k_reshape, BlockStriped(self.df), InjectiveStriped(self.dp2))
        call(pool_bwd, BlockStriped(self.dp2), BlockStriped(F.m2),
             InjectiveStriped(self.da2))
        call(conv_bwd_filter, BlockStriped(F.p1), BlockStriped(self.da2),
             ReductiveStatic(G["W2"]), ReductiveStatic(G["b2"]))
        call(conv_bwd_data, BlockStriped(self.da2), Replicated(P["W2"]),
             InjectiveStriped(self.dp1))
        call(pool_bwd, BlockStriped(self.dp1), BlockStriped(F.m1),
             InjectiveStriped(self.da1))
        call(conv_bwd_filter, BlockStriped(F.x0), BlockStriped(self.da1),
             ReductiveStatic(G["W1"]), ReductiveStatic(G["b1"]))
        for name in PARAM_NAMES:
            p, g = P[name], G[name]
            call(update, BlockStriped(p), BlockStriped(g),
                 InjectiveStriped(p), grid=Grid((p.shape[0],), block0=1),
                 constants={"lr": self.lr})
        return calls

    def run_iteration(self) -> None:
        """Queue one training iteration (does not wait)."""
        self.loop.submit()

    def train_batch(
        self, images: np.ndarray, labels: np.ndarray
    ) -> Optional[float]:
        """Functional: load a batch, run one iteration, return the loss."""
        if not self.node.functional:
            raise RuntimeError("train_batch requires a functional node")
        self.fwd.x0.host[...] = images
        self.labels.host[...] = labels
        self.sched.mark_host_dirty(self.fwd.x0)
        self.sched.mark_host_dirty(self.labels)
        self.run_iteration()
        self.sched.gather(self.loss)
        return float(self.loss.host[0])

    def forward_batch(self, images: np.ndarray) -> np.ndarray:
        """Forward-only inference through the framework: the forward pass
        (the head of every iteration) as one :meth:`Loop.run
        <repro.core.graph.Loop.run>`, as the serving engine runs it, with
        the logits gathered. Returns the ``(batch, 10)`` logits array."""
        if not self.node.functional:
            raise RuntimeError("forward_batch requires a functional node")
        fwd = self.fwd
        fwd.x0.host[...] = images
        self.loop.run(0, len(fwd.calls), marks=(fwd.x0,), gathers=(None,))
        return fwd.logits.host.copy()

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy over one device-resident batch."""
        logits = self.forward_batch(images)
        return float((logits.argmax(axis=1) == labels).mean())

    def gather_params(self) -> LeNetParams:
        """Bring the device-resident parameters back to the host."""
        for name in PARAM_NAMES:
            self.sched.gather_async(self.p_datums[name])
        self.sched.wait_all()
        return self.params

    def measure_iteration(self, warmup: int = 1, iters: int = 3) -> float:
        """Timing mode: steady-state simulated seconds per iteration."""
        return self.loop.measure(warmup, iters)

    def throughput(self, warmup: int = 1, iters: int = 3) -> float:
        """Training throughput in images/second (the Fig. 11 metric)."""
        return self.batch / self.measure_iteration(warmup, iters)
