"""Fixed-shape LeNet inference engine (forward pass only, §6.1).

The serving layer (``repro.serving``) runs LeNet as an inference
microservice: a *replica* owns one device and answers batched requests.
This module is the engine a replica hosts — the forward half of the Fig.
10 network, built once over a (possibly device-restricted) scheduler at a
fixed batch shape, then invoked per batch.

The shape is fixed on purpose, exactly like a compiled fixed-shape
inference engine (TensorRT-style): every batch is padded to ``batch``
rows, so every invocation resolves to the *same* task signatures and —
because every per-sample computation (conv via im2col, pooling, GEMMs)
touches only that sample's rows at an identical total shape — a request's
logits are **bitwise independent of which other requests shared its
batch**. That invariant is what lets the dynamic batcher promise batched
== sequential bit-identity.

The eight layer calls are declared as one :class:`~repro.core.graph.Loop`
and every batch is one :meth:`~repro.core.graph.Loop.run` transition
(the input upload, the forward chain and the gather of the logits): the
first batch runs eagerly, the second is captured as an iteration graph
(DESIGN.md §12) and every later one is a single graph launch.
"""

from __future__ import annotations

import numpy as np

from repro.apps.lenet import tasks as T
from repro.apps.lenet.network import (
    CLASSES,
    CONV1_FILTERS,
    CONV2_FILTERS,
    FC1,
    FLAT,
    LeNetParams,
)
from repro.core import Datum, Grid, Scheduler
from repro.core.graph import Loop
from repro.patterns import (
    BlockStriped,
    InjectiveStriped,
    Replicated,
)


class LeNetInference:
    """Forward-only LeNet over a scheduler, at one fixed batch shape.

    Args:
        sched: The scheduler to build on. The job-server/serving layers
            pass a device-restricted one (``Scheduler(node, devices=(d,))``)
            so each replica stays on its own GPU.
        params: Host-side parameters (shared across replicas — every
            replica of one model binds the *same* arrays, so any replica
            answers any request identically).
        batch: Fixed batch shape; smaller batches are zero-padded.
    """

    def __init__(self, sched: Scheduler, params: LeNetParams, batch: int):
        if batch < 1:
            raise ValueError("need batch >= 1")
        self.sched = sched
        self.params = params
        self.batch = int(batch)
        b = self.batch
        self._images = np.zeros((b, 1, 28, 28), np.float32)
        self._build_datums()
        self._build_kernels()
        calls = self._forward_calls()
        self.loop = Loop.declare(
            sched,
            [kernel for kernel, _ in calls],
            [containers for _, containers in calls],
            [self.a1, self.p1, self.a2, self.p2, self.f, self.h, self.hr,
             self.logits],
            Grid((b,), block0=1),
        )

    def _datum(self, name: str, shape, dtype=np.float32) -> Datum:
        d = Datum(shape, dtype, name)
        d.bind(np.zeros(shape, dtype))
        return d

    def _build_datums(self) -> None:
        b = self.batch
        self.x0 = Datum((b, 1, 28, 28), np.float32, "infer.x0").bind(
            self._images
        )
        self.a1 = self._datum("infer.a1", (b, CONV1_FILTERS, 24, 24))
        self.p1 = self._datum("infer.p1", (b, CONV1_FILTERS, 12, 12))
        self.m1 = self._datum("infer.m1", (b, CONV1_FILTERS, 12, 12), np.int8)
        self.a2 = self._datum("infer.a2", (b, CONV2_FILTERS, 8, 8))
        self.p2 = self._datum("infer.p2", (b, CONV2_FILTERS, 4, 4))
        self.m2 = self._datum("infer.m2", (b, CONV2_FILTERS, 4, 4), np.int8)
        self.f = self._datum("infer.f", (b, FLAT))
        self.h = self._datum("infer.h", (b, FC1))
        self.hr = self._datum("infer.hr", (b, FC1))
        self.logits = self._datum("infer.logits", (b, CLASSES))
        self.p_datums: dict[str, Datum] = {}
        for name, arr in self.params.items():
            self.p_datums[name] = Datum(arr.shape, np.float32, name).bind(arr)

    def _build_kernels(self) -> None:
        self.k_conv = T.make_conv_fwd()
        self.k_pool = T.make_pool_fwd()
        self.k_reshape = T.make_reshape()
        self.k_fc = T.make_fc_fwd()
        self.k_relu = T.make_mp_relu_fwd()  # same body, striped dim 0

    def _forward_calls(self):
        P = self.p_datums
        return [
            (
                self.k_conv,
                (
                    BlockStriped(self.x0),
                    Replicated(P["W1"]),
                    Replicated(P["b1"]),
                    InjectiveStriped(self.a1),
                ),
            ),
            (
                self.k_pool,
                (
                    BlockStriped(self.a1),
                    InjectiveStriped(self.p1),
                    InjectiveStriped(self.m1),
                ),
            ),
            (
                self.k_conv,
                (
                    BlockStriped(self.p1),
                    Replicated(P["W2"]),
                    Replicated(P["b2"]),
                    InjectiveStriped(self.a2),
                ),
            ),
            (
                self.k_pool,
                (
                    BlockStriped(self.a2),
                    InjectiveStriped(self.p2),
                    InjectiveStriped(self.m2),
                ),
            ),
            (
                self.k_reshape,
                (BlockStriped(self.p2), InjectiveStriped(self.f)),
            ),
            (
                self.k_fc,
                (
                    BlockStriped(self.f),
                    Replicated(P["W3"]),
                    Replicated(P["b3"]),
                    InjectiveStriped(self.h),
                ),
            ),
            (
                self.k_relu,
                (BlockStriped(self.h), InjectiveStriped(self.hr)),
            ),
            (
                self.k_fc,
                (
                    BlockStriped(self.hr),
                    Replicated(P["W4"]),
                    Replicated(P["b4"]),
                    InjectiveStriped(self.logits),
                ),
            ),
        ]

    def infer(self, images: np.ndarray) -> np.ndarray:
        """Run one padded batch; returns the ``(batch, 10)`` logits.

        ``images`` may hold fewer than ``batch`` samples; the remainder is
        zero-padded (rows beyond ``images.shape[0]`` of the result are the
        padding's logits and are discarded by the caller)."""
        k = images.shape[0]
        if k > self.batch:
            raise ValueError(
                f"batch of {k} exceeds the engine's fixed shape {self.batch}"
            )
        self._images[:k] = images
        if k < self.batch:
            self._images[k:] = 0.0
        self.loop.run(0, self.loop.period, marks=(self.x0,), gathers=(None,))
        return self.logits.host.copy()
