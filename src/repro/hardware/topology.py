"""Node topology: how GPUs, PCIe switches and the host are wired.

The paper's nodes (§5) hold 4 GPUs: *"two PCI-Express 3 buses directly
connect pairs of GPUs, where each pair is controlled by a different CPU"*.
We model that as two switches with two GPUs each; the switches are joined
through the host's inter-socket link.

A transfer reserves a *path* — the ordered list of :class:`Link` objects it
crosses — for its whole duration, so contention between transfers sharing a
link (e.g. two cross-switch copies both crossing QPI) emerges naturally in
the discrete-event simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hardware.calibration import DEFAULT_INTERCONNECT, InterconnectCalibration


class Loc(enum.IntEnum):
    """Transfer endpoint: a device index (>= 0) or the host."""

    HOST = -1


HOST: int = int(Loc.HOST)


@dataclass(eq=False)
class Link:
    """One shared interconnect segment with a fixed per-direction bandwidth.

    PCIe (and QPI) are full duplex: each link carries independent traffic
    in each direction, which is what lets the GPUs' two copy engines
    overlap an upload with a download (§2). Contention therefore happens
    per ``(link, direction)`` channel.
    """

    name: str
    bandwidth: float  # bytes/second, per direction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.name}, {self.bandwidth / 1e9:.1f} GB/s)"


#: Direction constants for :class:`PathSegment`.
UP, DOWN = 0, 1


@dataclass(frozen=True)
class PathSegment:
    """One directed traversal of a link."""

    link: Link
    direction: int  # UP or DOWN

    @property
    def channel(self) -> tuple[int, int]:
        """Hashable contention key: one duplex channel of the link."""
        return (id(self.link), self.direction)


@dataclass
class NodeTopology:
    """Wiring of one multi-GPU node.

    Attributes:
        num_gpus: Number of GPUs in the node (1–8 supported; the paper
            uses 4).
        gpus_per_switch: GPUs sharing one PCIe switch (paper: 2).
        calib: Interconnect calibration constants.
    """

    num_gpus: int
    gpus_per_switch: int = 2
    calib: InterconnectCalibration = field(default_factory=lambda: DEFAULT_INTERCONNECT)
    #: Host CPU sockets (staging memcpy threads); the paper's nodes have
    #: two CPUs regardless of how many of the four GPUs a run uses.
    num_sockets: int = 2

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("need at least one GPU")
        c = self.calib
        self._uplinks = [
            Link(f"switch{i}-uplink", c.host_pinned_bw)
            for i in range(self.num_switches)
        ]
        self._p2p = [
            Link(f"switch{i}-p2p", c.p2p_same_switch_bw)
            for i in range(self.num_switches)
        ]
        self._qpi = Link("inter-socket", c.p2p_cross_switch_bw)
        # Pageable host transfers stage through host-side memcpy threads —
        # one per CPU socket (== number of switches in the paper's nodes).
        # Pageable traffic beyond that thread count serializes, which is
        # what caps CUBLAS-XT's multi-GPU scaling (§5.4).
        self._pageable = [
            Link(f"pageable-staging{i}", c.host_pageable_bw)
            for i in range(self.num_sockets)
        ]

    @property
    def num_switches(self) -> int:
        return (self.num_gpus + self.gpus_per_switch - 1) // self.gpus_per_switch

    def switch_of(self, device: int) -> int:
        if not 0 <= device < self.num_gpus:
            raise ValueError(f"bad device index {device}")
        return device // self.gpus_per_switch

    def same_switch(self, a: int, b: int) -> bool:
        return self.switch_of(a) == self.switch_of(b)

    # -- path selection ------------------------------------------------------
    def path(
        self, src: int, dst: int, pageable: bool = False
    ) -> list[PathSegment]:
        """Directed link traversals of a transfer from ``src`` to ``dst``.

        ``src``/``dst`` are device indices, or :data:`HOST`. ``pageable``
        selects the slow pageable-memory path for host transfers (an extra
        staging copy through unpinned host memory), used to model
        CUBLAS-XT's host-based API. Uplinks are traversed UP (toward the
        host) on the source side and DOWN (toward the device) on the
        destination side; the per-direction channels make duplex overlap
        possible while same-direction traffic contends.
        """
        if src == dst:
            return []
        if src == HOST or dst == HOST:
            dev = dst if src == HOST else src
            direction = DOWN if src == HOST else UP
            segs = [PathSegment(self._uplinks[self.switch_of(dev)], direction)]
            if pageable:
                segs.append(
                    PathSegment(
                        self._pageable[dev % len(self._pageable)], direction
                    )
                )
            return segs
        if self.same_switch(src, dst):
            return [
                PathSegment(
                    self._p2p[self.switch_of(src)], DOWN if src < dst else UP
                )
            ]
        qpi_dir = DOWN if self.switch_of(src) < self.switch_of(dst) else UP
        return [
            PathSegment(self._uplinks[self.switch_of(src)], UP),
            PathSegment(self._qpi, qpi_dir),
            PathSegment(self._uplinks[self.switch_of(dst)], DOWN),
        ]

    def transfer_time(self, nbytes: int, path: list[PathSegment]) -> float:
        """Latency + serialization time over the path's bottleneck link."""
        if not path:
            return 0.0
        bw = min(seg.link.bandwidth for seg in path)
        return self.calib.transfer_latency + nbytes / bw
