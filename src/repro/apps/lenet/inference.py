"""LeNet's forward pass, declared once (§6.1, Fig. 10).

:class:`LeNetForward` builds the forward half of the network at one batch
shape: the activation and parameter datums, the layer kernels and the
call list — conv, pool, conv, pool, reshape, fc1, fc2 — with one
:class:`~repro.core.graph.Call` (kernel, containers and grid) per layer.
A loop reads the datum each call writes off its output containers. Its
two users run exactly those calls:

* :class:`~repro.apps.lenet.trainer.MapsLeNetTrainer` declares them as
  the head of its training iteration's :class:`~repro.core.graph.Loop`
  and runs them alone for inference (``forward_batch``, one
  ``Loop.run``);
* the serving layer's :class:`~repro.serving.models.LeNetEngine`
  declares them, in the data-parallel form, as one loop at a fixed
  padded batch shape and serves a batch with the same ``Loop.run``.

The two parallelism schemes differ only in fc1, as in the paper ("switching
between data parallelism and the hybrid approach in MAPS-Multi requires
only a single access pattern modification"): ``"data"`` runs the fc1 GEMM
and its ReLU batch-striped against replicated weights; ``"hybrid"``
transposes the activations, runs fc1 model-parallel against row-striped
weights (``Block2D``) and full activations (``Block2DTransposed``), and
transposes back.
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
from repro.core import Datum, Grid
from repro.core.graph import Call
from repro.patterns import (
    Block2D,
    Block2DTransposed,
    BlockColumnStriped,
    BlockStriped,
    InjectiveColumnStriped,
    InjectiveStriped,
    Replicated,
)


class LeNetForward:
    """LeNet's forward pass over ``batch`` images in one ``mode``.

    Attributes:
        x0, a1, p1, m1, a2, p2, m2, f, h, hr, logits: The activations
            (``fT``, ``hT``, ``hrT`` too in hybrid mode).
        params: Parameter name -> datum, bound to ``params``' arrays.
        calls: One :class:`~repro.core.graph.Call` per layer, in
            dependency order.

    ``bind`` binds every datum to a host buffer; timing-only callers
    leave them unbound.
    """

    def __init__(
        self, params: LeNetParams, batch: int, mode: str = "data",
        bind: bool = True,
    ):
        b = batch

        def datum(name: str, shape, dtype=np.float32) -> Datum:
            d = Datum(shape, dtype, name)
            return d.bind(np.zeros(shape, dtype)) if bind else d

        self.x0 = datum("x0", (b, 1, 28, 28))
        self.a1 = datum("a1", (b, CONV1_FILTERS, 24, 24))
        self.p1 = datum("p1", (b, CONV1_FILTERS, 12, 12))
        self.m1 = datum("m1", (b, CONV1_FILTERS, 12, 12), np.int8)
        self.a2 = datum("a2", (b, CONV2_FILTERS, 8, 8))
        self.p2 = datum("p2", (b, CONV2_FILTERS, 4, 4))
        self.m2 = datum("m2", (b, CONV2_FILTERS, 4, 4), np.int8)
        self.f = datum("f", (b, FLAT))
        self.h = datum("h", (b, FC1))
        self.hr = datum("hr", (b, FC1))
        self.logits = datum("logits", (b, CLASSES))
        self.params: dict[str, Datum] = {}
        for name, arr in params.items():
            d = Datum(arr.shape, np.float32, name)
            self.params[name] = d.bind(arr) if bind else d
        self.k_conv = T.make_conv_fwd()
        self.k_pool = T.make_pool_fwd()
        self.k_reshape = T.make_reshape()
        self.k_fc = T.make_fc_fwd()
        self.k_relu = T.make_mp_relu_fwd()  # striped dim 0 in both modes
        P = self.params
        bgrid = Grid((b,), block0=1)
        self.calls: list[Call] = []

        def call(kernel, *containers, grid=bgrid) -> None:
            self.calls.append(Call(kernel, containers, grid))

        def conv(x, w, bias, y) -> None:
            call(self.k_conv, BlockStriped(x), Replicated(P[w]),
                 Replicated(P[bias]), InjectiveStriped(y))

        def pool(x, y, mask) -> None:
            call(self.k_pool, BlockStriped(x), InjectiveStriped(y),
                 InjectiveStriped(mask))

        def fc(x, w, bias, y) -> None:
            call(self.k_fc, BlockStriped(x), Replicated(P[w]),
                 Replicated(P[bias]), InjectiveStriped(y))

        conv(self.x0, "W1", "b1", self.a1)
        pool(self.a1, self.p1, self.m1)
        conv(self.p1, "W2", "b2", self.a2)
        pool(self.a2, self.p2, self.m2)
        call(self.k_reshape, BlockStriped(self.p2), InjectiveStriped(self.f))
        if mode == "data":
            fc(self.f, "W3", "b3", self.h)
            call(self.k_relu, BlockStriped(self.h), InjectiveStriped(self.hr))
        else:
            self.fT = datum("fT", (FLAT, b))
            self.hT = datum("hT", (FC1, b))
            self.hrT = datum("hrT", (FC1, b))
            self.k_transpose = T.make_transpose()
            self.k_mp_fc = T.make_mp_fc_fwd()
            self.k_untranspose = T.make_untranspose()
            fgrid = Grid((FC1,), block0=1)
            call(self.k_transpose, BlockStriped(self.f),
                 InjectiveColumnStriped(self.fT))
            call(self.k_mp_fc, Block2D(P["W3"]), BlockStriped(P["b3"]),
                 Block2DTransposed(self.fT), InjectiveStriped(self.hT),
                 grid=fgrid)
            call(self.k_relu, BlockStriped(self.hT),
                 InjectiveStriped(self.hrT), grid=fgrid)
            call(self.k_untranspose, BlockColumnStriped(self.hrT),
                 InjectiveStriped(self.hr))
        fc(self.hr, "W4", "b4", self.logits)
