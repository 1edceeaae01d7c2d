"""Passive clustering flooding (Kwon & Gerla) — related-work baseline.

Section 2: "a passive clustering scheme that constructs the cluster
structure during the data propagation.  A clusterhead candidate applies the
'first declaration wins' rule to become a clusterhead when it successfully
transmits a packet.  Then, its neighbor nodes ... become gateways if they
have more than one adjacent clusterhead or ordinary (non-clusterhead) nodes
otherwise ... but it suffers poor delivery rate ..."

Rules implemented (the packet header carries the sender's state, as in the
original scheme):

* **first declaration wins** — an ``INITIAL`` node that transmits with no
  known neighbouring clusterhead becomes a ``CLUSTERHEAD``; one that does
  know a head becomes a ``GATEWAY`` by transmitting;
* a silent non-head that has heard **two or more** clusterheads becomes a
  ``GATEWAY`` candidate anyway (inter-cluster bridge);
* a silent non-head that has heard exactly one clusterhead **and** at least
  one gateway becomes ``ORDINARY`` — its cluster is already served;
* forwarding: each receiver arms a relay after a random channel-access
  jitter; when the jitter expires an ``ORDINARY`` node stays silent,
  anybody else transmits.  (The jitter is what lets passive clustering
  work at all: state transitions ride on packets that are overheard while
  contending for the channel.)

Because suppression is decided from purely local, order-dependent evidence,
delivery is **not guaranteed** — the weakness the paper attributes to the
scheme.  Sparse networks show occasional genuine gaps; dense ones trade a
little delivery risk for large forward-set savings, which the robustness
experiments quantify.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.broadcast.result import BroadcastResult
from repro.errors import BroadcastError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId


class PassiveState(enum.Enum):
    """Node states of the passive clustering scheme."""

    INITIAL = "initial"
    CLUSTERHEAD = "clusterhead"
    GATEWAY = "gateway"
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class PassiveClusteringBroadcast:
    """Result plus the cluster structure the flood left behind.

    Attributes:
        result: The generic broadcast outcome (possibly partial delivery!).
        states: Final per-node passive-clustering states.
    """

    result: BroadcastResult
    states: Dict[NodeId, PassiveState]

    def heads(self) -> FrozenSet[NodeId]:
        """Nodes that declared themselves clusterheads."""
        return frozenset(
            v for v, s in self.states.items() if s is PassiveState.CLUSTERHEAD
        )


def broadcast_passive_clustering(
    graph: Graph,
    source: NodeId,
    *,
    rng: RngLike = None,
    latency: float = 0.05,
    jitter: tuple[float, float] = (0.1, 1.0),
) -> PassiveClusteringBroadcast:
    """Flood from ``source`` with passive clustering suppressing relays.

    Args:
        graph: The network.
        source: Originating node.
        rng: Seed or generator for the channel-access jitter.
        latency: Transmission delay; must be small relative to the jitter
            so state declarations can be overheard before relaying (the
            situation of a real CSMA channel).
        jitter: ``(min, max)`` uniform channel-access delay per relay.

    Returns:
        The :class:`PassiveClusteringBroadcast`.  Check
        ``result.delivered_to_all(graph)`` — unlike every other protocol in
        this library, it may be ``False`` by design.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if latency <= 0 or jitter[0] < 0 or jitter[1] < jitter[0]:
        raise BroadcastError(
            f"invalid timing: latency={latency}, jitter={jitter}"
        )
    generator = ensure_rng(rng)
    state: Dict[NodeId, PassiveState] = {v: PassiveState.INITIAL for v in graph}
    heard_heads: Dict[NodeId, Set[NodeId]] = {v: set() for v in graph}
    heard_gateways: Dict[NodeId, Set[NodeId]] = {v: set() for v in graph}
    reception: Dict[NodeId, float] = {source: 0.0}
    forwarded: Set[NodeId] = set()
    suppressed_relays: Set[NodeId] = set()
    counter = itertools.count()
    #: (time, seq, kind, node): kind 0 = delivery of node's transmission,
    #: kind 1 = relay-jitter expiry at node.
    heap: list = []

    def settle_role(v: NodeId) -> None:
        if state[v] in (PassiveState.CLUSTERHEAD, PassiveState.GATEWAY):
            return
        if len(heard_heads[v]) >= 2:
            state[v] = PassiveState.GATEWAY
        elif len(heard_heads[v]) == 1 and heard_gateways[v]:
            state[v] = PassiveState.ORDINARY

    def transmit(time: float, sender: NodeId) -> None:
        # First declaration wins, applied at (successful) transmission.
        if state[sender] in (PassiveState.INITIAL, PassiveState.ORDINARY):
            if not heard_heads[sender]:
                state[sender] = PassiveState.CLUSTERHEAD
            else:
                state[sender] = PassiveState.GATEWAY
        forwarded.add(sender)
        heapq.heappush(heap, (time + latency, next(counter), 0, sender))

    transmit(0.0, source)
    budget = 16 * graph.num_nodes + 64
    processed = 0
    while heap:
        time, _seq, kind, node = heapq.heappop(heap)
        processed += 1
        if processed > budget * 4:
            raise BroadcastError("passive clustering flood did not terminate")
        if kind == 0:
            # node's transmission arrives at all neighbours now.
            node_state = state[node]
            for x in sorted(graph.neighbours_view(node)):
                if node_state is PassiveState.CLUSTERHEAD:
                    heard_heads[x].add(node)
                elif node_state is PassiveState.GATEWAY:
                    heard_gateways[x].add(node)
                settle_role(x)
                if x not in reception:
                    reception[x] = time
                    delay = float(generator.uniform(*jitter))
                    heapq.heappush(
                        heap, (time + delay, next(counter), 1, x)
                    )
        else:
            if node in forwarded:
                continue
            if state[node] is PassiveState.ORDINARY:
                suppressed_relays.add(node)
            else:
                transmit(time, node)

    return PassiveClusteringBroadcast(
        result=BroadcastResult(
            source=source,
            algorithm="passive-clustering",
            forward_nodes=frozenset(forwarded),
            received=frozenset(reception),
            reception_time={v: int(t) for v, t in reception.items()},
            transmissions=len(forwarded),
        ),
        states=state,
    )
