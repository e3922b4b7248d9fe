"""Cluster extension (paper §8 future work): MAPS-Multi across nodes,
with master/agent fault tolerance (DESIGN.md §15)."""

from repro.cluster.agent import NodeAgent
from repro.cluster.faults import (
    ClusterFaultPlan,
    LinkFault,
    NodeCrash,
    NodeRepair,
    Partition,
    SlowLink,
)
from repro.cluster.master import MEMBERSHIP_ACTIONS, ClusterEvent, ClusterMaster
from repro.cluster.monitor import CheckpointRecord, ClusterMonitor
from repro.cluster.network import ClusterNetwork, NetworkCalibration

__all__ = [
    "ClusterNetwork",
    "NetworkCalibration",
    "ClusterMaster",
    "ClusterEvent",
    "MEMBERSHIP_ACTIONS",
    "NodeAgent",
    "ClusterMonitor",
    "CheckpointRecord",
    "ClusterFaultPlan",
    "NodeCrash",
    "NodeRepair",
    "LinkFault",
    "Partition",
    "SlowLink",
]
