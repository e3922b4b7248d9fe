"""LeNet training on multiple GPUs (§6.1, Figs. 10-11).

Trains the LeNet CNN on a synthetic MNIST-like stream with MAPS-Multi,
showing (a) real learning in functional mode, (b) that the data-parallel
and hybrid data/model-parallel schemes — one container swap apart —
produce identical numerics, and (c) the Fig. 11 throughput comparison
against the Torch-like and Caffe-like baselines.

Run: ``python examples/deep_learning.py``
"""

import numpy as np

from repro.apps.lenet import (
    LeNetParams,
    MapsLeNetTrainer,
    reference_forward,
    synthetic_mnist,
)
from repro.baselines import CaffeLikeLeNet, TorchLikeLeNet
from repro.core import Scheduler
from repro.hardware import GTX_780
from repro.sim import SimNode


def training_demo() -> None:
    batch, steps = 64, 12
    images, labels = synthetic_mnist(batch * steps, seed=0)

    sched = Scheduler(SimNode(GTX_780, 4, functional=True))
    trainer = MapsLeNetTrainer(
        sched, LeNetParams.initialize(0), batch, mode="data", lr=0.1
    )
    print(f"training LeNet, batch {batch}, 4 GPUs (data parallel):")
    first = last = None
    for step in range(steps):
        sl = slice(step * batch, (step + 1) * batch)
        loss = trainer.train_batch(images[sl], labels[sl])
        if step == 0:
            first = loss
        last = loss
        if step % 4 == 0 or step == steps - 1:
            print(f"  step {step:2d}  loss {loss:.4f}")
    assert last < first, "loss should decrease"

    # Accuracy on a held-out synthetic batch.
    trainer.gather_params()
    test_x, test_y = synthetic_mnist(256, seed=99)
    logits = reference_forward(trainer.params, test_x).logits
    acc = float((logits.argmax(1) == test_y).mean())
    print(f"  held-out accuracy after {steps} steps: {acc:.1%}")


def equivalence_demo() -> None:
    batch = 32
    images, labels = synthetic_mnist(batch, seed=5)
    results = {}
    for mode in ("data", "hybrid"):
        sched = Scheduler(SimNode(GTX_780, 4, functional=True))
        params = LeNetParams.initialize(0)
        trainer = MapsLeNetTrainer(sched, params, batch, mode=mode, lr=0.05)
        trainer.train_batch(images, labels)
        trainer.gather_params()
        results[mode] = params
    diff = max(
        float(np.abs(a - b).max())
        for (_, a), (_, b) in zip(
            results["data"].items(), results["hybrid"].items()
        )
    )
    print(
        "\ndata-parallel vs hybrid after one step: max parameter "
        f"difference {diff:.2e} (a single access-pattern change, §6.1)"
    )


def throughput_demo() -> None:
    batch = 2048
    print(f"\nthroughput, batch {batch}, GTX 780 (Fig. 11), img/s:")
    print(f"{'impl':16s} " + " ".join(f"{g} GPU{'s' if g > 1 else ' '}" for g in (1, 2, 3, 4)))
    for mode in ("data", "hybrid"):
        maps = []
        torch = []
        for g in (1, 2, 3, 4):
            sched = Scheduler(SimNode(GTX_780, g, functional=False))
            maps.append(
                MapsLeNetTrainer(
                    sched, LeNetParams.initialize(0), batch, mode=mode
                ).throughput()
            )
            torch.append(TorchLikeLeNet(GTX_780, g, batch, mode).throughput())
        print(f"maps {mode:11s} " + " ".join(f"{t:6.0f}" for t in maps))
        print(f"torch {mode:10s} " + " ".join(f"{t:6.0f}" for t in torch))
    print(f"caffe (1 GPU)    {CaffeLikeLeNet(GTX_780, batch).throughput():6.0f}")


if __name__ == "__main__":
    training_demo()
    equivalence_demo()
    throughput_demo()
