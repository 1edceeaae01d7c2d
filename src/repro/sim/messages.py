"""Typed protocol messages.

One frozen dataclass per message of the paper's protocol suite.  ``size()``
estimates the over-the-air payload in id-sized units, letting the ablation
benches compare message *volume* (not just count) between the 2.5-hop and
3-hop coverage exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional

from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class Message:
    """Base class; concrete messages add their payloads."""

    origin: NodeId  #: the node whose protocol state generated the message

    def size(self) -> int:
        """Payload size in node-id units (subclasses add their fields)."""
        return 1


@dataclass(frozen=True, slots=True)
class Hello(Message):
    """Neighbour discovery beacon."""


@dataclass(frozen=True, slots=True)
class ClusterHead(Message):
    """Clusterhead declaration of the lowest-ID algorithm."""


@dataclass(frozen=True, slots=True)
class NonClusterHead(Message):
    """Membership announcement; carries the joined head."""

    head: NodeId = -1

    def size(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class ChHop1(Message):
    """A non-clusterhead's 1-hop neighbouring clusterheads.

    ``heads`` is the CH_HOP1 content; ``own_head`` marks the sender's own
    clusterhead (the starred entry in the paper's notation).
    """

    heads: FrozenSet[NodeId] = frozenset()
    own_head: NodeId = -1

    def size(self) -> int:
        return 1 + len(self.heads)


@dataclass(frozen=True, slots=True)
class ChHop2(Message):
    """A non-clusterhead's 2-hop clusterhead entries.

    ``entries`` maps a clusterhead ``ch`` to the via-nodes ``w`` through
    which the sender reaches it (the paper's ``ch[w]`` notation).
    """

    entries: Mapping[NodeId, FrozenSet[NodeId]] = field(default_factory=dict)

    def size(self) -> int:
        return 1 + sum(1 + len(ws) for ws in self.entries.values())


@dataclass(frozen=True, slots=True)
class Gateway(Message):
    """A clusterhead's gateway designation, flooded with TTL=2.

    Attributes:
        selected: The gateway nodes this head selected.
        ttl: Remaining hops; selected nodes forward while ``ttl > 0``.
    """

    selected: FrozenSet[NodeId] = frozenset()
    ttl: int = 2

    def size(self) -> int:
        return 2 + len(self.selected)


@dataclass(frozen=True, slots=True)
class BroadcastPacket(Message):
    """The data broadcast packet with the SD-CDS piggyback.

    Attributes:
        source: The broadcast's originating node.
        head: The clusterhead whose selection produced this copy (``None``
            before the first head processed it).
        coverage: Piggybacked ``C(u)`` of that head.
        forward_set: Piggybacked ``F(u)``.
        relay_heads: Clusterheads adjacent to relays on this copy's path
            (the ``N(r)`` pruning information).
    """

    source: NodeId = -1
    head: Optional[NodeId] = None
    coverage: FrozenSet[NodeId] = frozenset()
    forward_set: FrozenSet[NodeId] = frozenset()
    relay_heads: FrozenSet[NodeId] = frozenset()

    def size(self) -> int:
        return (
            3
            + len(self.coverage)
            + len(self.forward_set)
            + len(self.relay_heads)
        )
