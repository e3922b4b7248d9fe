"""Serving and job-server policy values are class attributes, not
inputs: each keeps its old default's value, type and name, and the
constructors take only what callers vary."""

import dataclasses
import inspect

import pytest

from repro.server import JobServer, TenantQuota
from repro.serving import DynamicBatcher, ReplicaAutoscaler, ServingConfig

POLICY = [
    (ReplicaAutoscaler, "min_replicas", 1),
    (ReplicaAutoscaler, "up_backlog", 8.0),
    (ReplicaAutoscaler, "down_backlog", 1.0),
    (ReplicaAutoscaler, "cooldown", 2e-3),
    (DynamicBatcher, "max_wait", 5e-4),
    (ServingConfig, "max_batch", 8),
    (ServingConfig, "sgemm_size", 96),
    (JobServer, "default_quota", TenantQuota()),
    (JobServer, "aging_rate", 0.1),
    (JobServer, "requeue_base", 1e-4),
    (JobServer, "requeue_cap", 1e-2),
    (JobServer, "max_requeues", 4),
]

INSTANCES = {
    ReplicaAutoscaler: lambda: ReplicaAutoscaler(4),
    DynamicBatcher: DynamicBatcher,
    ServingConfig: ServingConfig,
    JobServer: lambda: JobServer(num_gpus=1),
}


def inputs(cls) -> list[str]:
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return list(inspect.signature(cls).parameters)


class TestPolicyValues:
    @pytest.mark.parametrize(
        "cls, name, value", POLICY,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in POLICY],
    )
    def test_value_is_a_class_attribute(self, cls, name, value):
        attr = getattr(INSTANCES[cls](), name)
        assert attr == value and type(attr) is type(value)
        assert name not in inputs(cls)

    def test_constructors_take_traffic_not_tunables(self):
        assert inputs(ServingConfig) == [
            "spec", "num_gpus", "functional", "batch_limit", "slo",
            "shed_expired", "capacity_frac", "faults",
        ]
        assert inputs(ReplicaAutoscaler) == ["max_replicas"]
        assert inputs(DynamicBatcher) == ["max_batch", "slo"]
        assert inputs(JobServer) == [
            "spec", "num_gpus", "functional", "time_slice", "quotas",
        ]
