"""Simulated streams: in-order command queues bound to a device or the host.

GPUs expose several command queues per device ("streams", §2) so that
memory copies and kernel execution can proceed concurrently; the scheduler
creates one compute stream and two copy streams per device (one per copy
engine) plus host streams for aggregation work.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque

from repro.hardware.topology import HOST
from repro.sim.commands import Command

_stream_ids = itertools.count()


class Stream:
    """An in-order command queue.

    Attributes:
        device: Owning device index, or ``HOST``.
        role: Informational tag (``"compute"``, ``"copy-in"``, ...).
        cursor: Simulated completion time of the last executed command.
    """

    __slots__ = ("id", "device", "role", "label", "commands", "cursor")

    def __init__(self, device: int = HOST, role: str = "compute", label: str = ""):
        self.id = next(_stream_ids)
        self.device = device
        self.role = role
        self.label = label or f"s{self.id}"
        self.commands: Deque[Command] = deque()
        self.cursor: float = 0.0

    @property
    def pending(self) -> int:
        return len(self.commands)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dev = "host" if self.device == HOST else f"gpu{self.device}"
        return f"Stream({self.label}, {dev}/{self.role}, pending={self.pending})"
