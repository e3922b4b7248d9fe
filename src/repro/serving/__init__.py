"""Serving under load (DESIGN.md §14): open-loop traffic, dynamic
batching, replica autoscaling, latency SLOs."""

from repro.serving.autoscaler import ReplicaAutoscaler, ScalingEvent
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.models import LeNetEngine, SgemmEngine
from repro.serving.service import (
    ServedRequest,
    ServingConfig,
    ServingNode,
    ServingReport,
)
from repro.serving.trace import (
    DEFAULT_MIX,
    ArrivalTrace,
    Request,
    bursty_trace,
    poisson_trace,
)

__all__ = [
    "ArrivalTrace",
    "Batch",
    "DEFAULT_MIX",
    "DynamicBatcher",
    "LeNetEngine",
    "ReplicaAutoscaler",
    "Request",
    "ScalingEvent",
    "ServedRequest",
    "ServingConfig",
    "ServingNode",
    "ServingReport",
    "SgemmEngine",
    "bursty_trace",
    "poisson_trace",
]
