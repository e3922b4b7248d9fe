"""LeNet CNN training and inference over MAPS-Multi (§6.1, Figs. 10-11)."""

from repro.apps.lenet.data import synthetic_mnist
from repro.apps.lenet.inference import LeNetForward
from repro.apps.lenet.network import (
    LeNetParams,
    reference_backward,
    reference_forward,
    reference_loss,
    reference_step,
)
from repro.apps.lenet.trainer import MapsLeNetTrainer

__all__ = [
    "synthetic_mnist",
    "LeNetParams",
    "LeNetForward",
    "reference_forward",
    "reference_backward",
    "reference_loss",
    "reference_step",
    "MapsLeNetTrainer",
]
