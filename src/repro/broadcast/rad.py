"""Random-assessment-delay (RAD) broadcasting — the paper's back-off pruning.

Section 3, discussing Figure 5: "When a node receives a broadcast packet, if
it can back-off a short period of time before it relays the packet, it may
receive more copies of the same packet from its other neighbors.  If all of
its neighbors can be covered by these already received broadcast copies, it
can resign its role of re-broadcast operation."

This module implements exactly that coverage-based back-off (Ni et al.'s
location/neighbour-coverage scheme): on first reception a node draws a
uniform delay; every copy heard from a sender ``s`` marks ``N(s)`` as
covered; when the delay expires the node relays only if some neighbour is
still uncovered.  Nodes need 2-hop neighbourhood knowledge (who their
neighbours' neighbours are), which the paper's CH_HOP exchange provides.

Coverage-based cancellation is conservative, so full delivery is guaranteed
on an ideal channel (property-tested); the price is latency — the very
trade-off the paper notes ("the first one will lead to more delay time").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Set

from repro.broadcast.result import BroadcastResult
from repro.errors import BroadcastError, ConfigurationError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId


@dataclass(frozen=True)
class RadBroadcast:
    """A :class:`BroadcastResult` plus RAD-specific accounting.

    Attributes:
        result: The generic outcome (reception times are floats rounded to
            ints in the generic result; exact times live here).
        cancelled: Nodes that armed a relay but cancelled it (their
            neighbourhood was fully covered before the delay expired).
        exact_reception_time: Unrounded reception times.
    """

    result: BroadcastResult
    cancelled: frozenset
    exact_reception_time: Dict[NodeId, float]


def broadcast_rad(
    graph: Graph,
    source: NodeId,
    *,
    max_delay: float = 1.0,
    rng: RngLike = None,
) -> RadBroadcast:
    """Run a coverage-based RAD broadcast from ``source``.

    Args:
        graph: The network.
        source: Originating node (transmits immediately).
        max_delay: Upper bound of the uniform per-node assessment delay, in
            units of the transmission latency (1.0).
        rng: Seed or generator for the delays.

    Returns:
        The :class:`RadBroadcast`.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if max_delay < 0.0:
        raise ConfigurationError(f"max_delay must be >= 0, got {max_delay}")
    generator = ensure_rng(rng)

    #: transmission latency (kept at 1 like the rest of the library).
    latency = 1.0
    reception: Dict[NodeId, float] = {source: 0.0}
    covered: Dict[NodeId, Set[NodeId]] = {v: set() for v in graph}
    forwarded: Set[NodeId] = set()
    cancelled: Set[NodeId] = set()
    counter = itertools.count()
    #: (time, seq, kind, node) events; kind 0 = delivery sweep of a
    #: transmission, kind 1 = assessment-delay expiry.
    heap: list = []

    def transmit(time: float, sender: NodeId) -> None:
        forwarded.add(sender)
        heapq.heappush(heap, (time + latency, next(counter), 0, sender))

    def arm(node: NodeId, time: float) -> None:
        delay = float(generator.uniform(0.0, max_delay)) if max_delay > 0 else 0.0
        heapq.heappush(heap, (time + delay, next(counter), 1, node))

    transmit(0.0, source)
    guard = 16 * graph.num_nodes + 64
    processed = 0
    while heap:
        time, _seq, kind, node = heapq.heappop(heap)
        processed += 1
        if processed > guard * 4:
            raise BroadcastError("RAD broadcast failed to terminate")
        if kind == 0:
            # ``node`` transmitted at time - latency; neighbours receive now.
            neighbourhood = graph.closed_neighbourhood(node)
            for x in sorted(graph.neighbours_view(node)):
                covered[x] |= neighbourhood
                if x not in reception:
                    reception[x] = time
                    arm(x, time)
        else:
            if node in forwarded or node in cancelled:
                continue
            uncovered = (
                set(graph.neighbours_view(node)) - covered[node] - {node}
            )
            if uncovered:
                transmit(time, node)
            else:
                cancelled.add(node)

    result = BroadcastResult(
        source=source,
        algorithm=f"rad[{max_delay:g}]",
        forward_nodes=frozenset(forwarded),
        received=frozenset(reception),
        reception_time={v: int(t) for v, t in reception.items()},
        transmissions=len(forwarded),
    )
    return RadBroadcast(
        result=result,
        cancelled=frozenset(cancelled),
        exact_reception_time=dict(reception),
    )
