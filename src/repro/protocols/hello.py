"""Phase 1: HELLO neighbour discovery.

Every node beacons once; receivers accumulate the sender ids.  After the
phase each node's ``hello.neighbours`` state equals its unit-disk neighbour
set — the knowledge all later phases assume ("Each node can learn its
neighbors' IDs through HELLO messages").
"""

from __future__ import annotations

from typing import Set

from repro.sim.messages import Hello, Message
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.types import NodeId

NEIGHBOURS = "hello.neighbours"


class HelloProtocol:
    """One-shot neighbour discovery."""

    def __init__(self, network: SimNetwork) -> None:
        self.network = network
        for node in network:
            node.state[NEIGHBOURS] = set()
            node.on(Hello, self._on_hello)

    def start(self) -> None:
        """Schedule every node's beacon at time 0."""
        for node in self.network:
            self.network.sim.schedule(
                0.0,
                lambda n=node: n.send(Hello(origin=n.id)),
                priority=(node.id,),
            )

    @staticmethod
    def _on_hello(node: SimNode, sender: NodeId, message: Message) -> None:
        neighbours: Set[NodeId] = node.state[NEIGHBOURS]  # type: ignore[assignment]
        neighbours.add(sender)
