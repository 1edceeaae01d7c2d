"""Broadcast outcome accounting.

The paper's headline metric is the **size of the forward node set** — the
number of distinct nodes that transmit the packet (Figures 7 and 8).  The
result object also records total transmissions (a forward node may,
exceptionally, transmit more than once in the SD protocol — see DESIGN.md),
per-node reception times and the derived latency, so the same object feeds
delivery checks, latency studies and the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional

from repro.graph.adjacency import Graph
from repro.types import NodeId


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of one broadcast.

    Attributes:
        source: Originating node.
        algorithm: Name of the protocol that produced this result.
        forward_nodes: Distinct nodes that transmitted the packet, including
            the source.
        received: Nodes that received the packet (the source counts as
            having received at time 0).
        reception_time: Node -> first reception time (unit transmission
            delays; the source maps to 0).
        transmissions: Total number of transmissions (>= ``len(forward_nodes)``).
        channel: PHY/MAC counters of the run
            (:meth:`repro.channel.model.ChannelStats.as_dict` — collisions,
            captures, MAC deferrals/drops) when the medium carried a
            channel model; ``None`` on the bare medium and for the
            centralised algorithms, which never touch a channel.
    """

    source: NodeId
    algorithm: str
    forward_nodes: FrozenSet[NodeId]
    received: FrozenSet[NodeId]
    reception_time: Mapping[NodeId, int]
    transmissions: int
    channel: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.source not in self.received:
            raise ValueError("the source must be counted as having received")
        if not self.forward_nodes <= self.received:
            raise ValueError("every forward node must have received the packet")
        if self.transmissions < len(self.forward_nodes):
            raise ValueError("transmissions cannot undercount forward nodes")

    @property
    def num_forward_nodes(self) -> int:
        """The paper's metric: ``|forward node set|``."""
        return len(self.forward_nodes)

    @property
    def latency(self) -> int:
        """Largest first-reception time (0 for a single-node network)."""
        return max(self.reception_time.values())

    def delivered_to_all(self, graph: Graph) -> bool:
        """Whether every node of ``graph`` received the packet."""
        return set(graph.nodes()) <= set(self.received)
