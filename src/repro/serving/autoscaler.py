"""Replica autoscaling with hysteresis (DESIGN.md §14).

Watches queue backlog per replica and decides when to add or remove a
per-device model replica. The only input is the replica ceiling; the
floor, the two backlog thresholds and the cooldown are class attributes.
The two thresholds are deliberately far apart (hysteresis): scaling up
is triggered by sustained backlog, scaling down only by near-idleness
after a cooldown, so a load level that sits between them holds the
replica count steady instead of flapping — every scale-up costs a
provisioning warm-up (weight distribution to the new device) that a
flapping policy would pay over and over.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler decision, for the audit log."""

    time: float
    action: str  # "up" | "down"
    replicas: int  # replica count after the action
    depth: int  # queue depth that triggered it


class ReplicaAutoscaler:
    """Queue-depth-driven replica count controller.

    Args:
        max_replicas: Ceiling (the node's device count).
    """

    #: Floor (the service never cold-starts from zero).
    min_replicas = 1
    #: Scale up when queued requests per replica exceed this.
    up_backlog = 8.0
    #: Scale down when queued requests per replica fall below this;
    #: strictly below ``up_backlog`` — the gap is the hysteresis band.
    down_backlog = 1.0
    #: Minimum simulated seconds between scaling actions.
    cooldown = 2e-3

    def __init__(self, max_replicas: int):
        self.max_replicas = int(max_replicas)
        self.events: list[ScalingEvent] = []
        self._last_action: float | None = None

    def decide(
        self, now: float, depth: int, replicas: int, idle: int
    ) -> int:
        """One control decision: +1 (add a replica), -1 (remove an idle
        one), or 0. Mutates nothing but the event log; the serving driver
        owns the actual provisioning."""
        if (
            self._last_action is not None
            and now - self._last_action < self.cooldown
        ):
            return 0
        backlog = depth / max(replicas, 1)
        if backlog > self.up_backlog and replicas < self.max_replicas:
            self._last_action = now
            self.events.append(ScalingEvent(now, "up", replicas + 1, depth))
            return 1
        if (
            backlog < self.down_backlog
            and replicas > self.min_replicas
            and idle > 0
        ):
            self._last_action = now
            self.events.append(ScalingEvent(now, "down", replicas - 1, depth))
            return -1
        return 0
