"""Reliable SI/SD-CDS broadcast: hop-local ARQ plus backbone repair.

The plain backbone broadcasts forward on first reception and hope: on a
lossy or faulty channel a single missed delivery severs a whole subtree.
:class:`ReliableBroadcast` wraps the same forwarding plans in a
retransmission layer:

* every node that receives the packet broadcasts an acknowledgement (itself
  lossy), and data/ACK transmissions from a neighbour both count as proof
  that the neighbour holds the packet (implicit ACK);
* a forward node retransmits until every neighbour is known to hold the
  packet, with exponential backoff and a bounded retry budget — all timers
  ride the deterministic event queue (``priority=(node,)``), so a seeded
  run is bit-reproducible;
* a neighbour still silent after the whole budget is *presumed dead*.  With
  a :class:`BackboneFallback` attached, the dead node is removed from a
  private topology copy, the static backbone is rebuilt from scratch on
  what remains, and the rebuilt backbone's nodes are promoted to relays
  mid-broadcast (a crashed clusterhead's duties fall to the survivors' new
  selection).

The simulated network's graph is never touched; the fallback mutates only
its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast.result import BroadcastResult
from repro.broadcast.sd_cds import broadcast_sd
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.errors import BroadcastError, NodeNotFoundError
from repro.faults.injector import FaultInjector
from repro.graph.adjacency import Graph
from repro.sim.messages import Message
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.types import CoveragePolicy, NodeId


@dataclass(frozen=True, slots=True)
class ReliableData(Message):
    """The data packet of the reliable broadcast (``attempt`` > 0 on a
    retransmission)."""

    source: NodeId = -1
    attempt: int = 0

    def size(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class ReliableAck(Message):
    """Broadcast acknowledgement: "I hold ``source``'s packet"."""

    source: NodeId = -1

    def size(self) -> int:
        return 2


class BackboneFallback:
    """Re-derive the relay set after node failures, from scratch.

    Keeps a private copy of the graph and the set of nodes reported dead.
    Each failure report strips the newly dead nodes' edges from the copy and
    rebuilds the static backbone on a fresh lowest-ID clustering of it.  At
    the sizes a simulated broadcast runs, the rebuild is cheaper than any
    incremental repair (see ``docs/performance.md``).

    Args:
        graph: The pre-fault topology (copied; never mutated by reference).
        policy: Coverage policy of the rebuilt backbone.
    """

    def __init__(self, graph: Graph,
                 policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP) -> None:
        self._graph = graph.copy()
        self._policy = policy
        self._removed: Set[NodeId] = set()

    @property
    def removed(self) -> FrozenSet[NodeId]:
        """Nodes reported dead so far."""
        return frozenset(self._removed)

    def backbone_after_failures(
        self, dead: Iterable[NodeId]
    ) -> FrozenSet[NodeId]:
        """Remove ``dead`` from the working topology; return the new CDS.

        The returned set excludes every node ever reported dead (a removed
        node ends up isolated and would otherwise elect itself head).

        Raises:
            NodeNotFoundError: Some id in ``dead`` is not in the graph; the
                fallback is left exactly as it was before the call.
        """
        fresh = sorted(set(dead) - self._removed)
        for d in fresh:
            if d not in self._graph:
                raise NodeNotFoundError(d)
        for d in fresh:
            self._removed.add(d)
            for w in sorted(self._graph.neighbours_view(d)):
                self._graph.remove_edge(d, w)
        backbone = build_static_backbone(
            lowest_id_clustering(self._graph), self._policy
        )
        return frozenset(backbone.nodes) - frozenset(self._removed)


@dataclass(frozen=True)
class ReliableOutcome:
    """Outcome of one reliable broadcast.

    Attributes:
        result: The generic broadcast outcome.
        data_transmissions: Data packets sent, retransmissions included.
        ack_transmissions: Acknowledgements sent.
        retransmissions: Data sends beyond each forwarder's first.
        declared_dead: Neighbours presumed dead after retry exhaustion.
        promoted: Nodes promoted to relays by the fallback repair.
        gave_up: ``(forwarder, neighbour)`` pairs abandoned at budget end.
    """

    result: BroadcastResult
    data_transmissions: int
    ack_transmissions: int
    retransmissions: int
    declared_dead: FrozenSet[NodeId]
    promoted: FrozenSet[NodeId]
    gave_up: FrozenSet[Tuple[NodeId, NodeId]]

    @property
    def overhead_factor(self) -> float:
        """Total transmissions per forward node (price of reliability)."""
        n_fwd = max(1, self.result.num_forward_nodes)
        return (self.data_transmissions + self.ack_transmissions) / n_fwd


class ReliableBroadcast:
    """ACK/retransmit wrapper over a backbone forwarding plan.

    Args:
        network: The simulated network (control phases already done).
        relays: Initial forwarding membership (e.g. the static backbone's
            nodes, or an SD forward plan); the source always forwards.
        max_retries: Per-forwarder retransmission budget.
        base_timeout: First ACK-collection window; must exceed one data+ACK
            round trip (two medium latencies).
        backoff: Multiplicative backoff factor for later windows.
        fallback: Optional :class:`BackboneFallback` consulted whenever a
            neighbour is declared dead; its repaired backbone nodes are
            promoted to relays.
        injector: Optional :class:`FaultInjector` — when given, a crashed
            forwarder's pending ARQ timers are inert while it is down (a
            dead CPU runs no retransmission logic).
        algorithm: Label recorded in the result.
    """

    RECEIVED = "rel_bcast.received_at"
    FORWARDED = "rel_bcast.forwarded"
    HAVE = "rel_bcast.have"

    def __init__(
        self,
        network: SimNetwork,
        relays: Iterable[NodeId],
        *,
        max_retries: int = 6,
        base_timeout: float = 4.0,
        backoff: float = 2.0,
        fallback: Optional[BackboneFallback] = None,
        injector: Optional[FaultInjector] = None,
        algorithm: str = "reliable-si-cds",
    ) -> None:
        if max_retries < 0:
            raise BroadcastError(f"max_retries must be >= 0, got {max_retries}")
        if base_timeout <= 2.0 * network.medium.latency:
            raise BroadcastError(
                "base_timeout must exceed one data+ACK round trip "
                f"(2 x latency = {2.0 * network.medium.latency:g})"
            )
        if backoff < 1.0:
            raise BroadcastError(f"backoff must be >= 1.0, got {backoff}")
        self.network = network
        self._relays: Set[NodeId] = set(relays)
        self.max_retries = max_retries
        self.base_timeout = base_timeout
        self.backoff = backoff
        self._fallback = fallback
        self._injector = injector
        self.algorithm = algorithm
        self.data_transmissions = 0
        self.ack_transmissions = 0
        self.retransmissions = 0
        self._presumed_dead: Set[NodeId] = set()
        self._promoted: Set[NodeId] = set()
        self.gave_up: Set[Tuple[NodeId, NodeId]] = set()
        for node in network:
            node.state[self.RECEIVED] = None
            node.state[self.FORWARDED] = False
            node.state[self.HAVE] = set()
            node.replace_handler(ReliableData, self._on_data)
            node.replace_handler(ReliableAck, self._on_ack)

    # -- driving -----------------------------------------------------------

    def start(self, source: NodeId) -> None:
        """Originate the broadcast at ``source`` at the current sim time."""
        if source not in self.network.graph:
            raise NodeNotFoundError(source)
        self.source = source
        self._relays.add(source)
        node = self.network.node(source)
        node.state[self.RECEIVED] = self.network.sim.now
        self.network.sim.schedule(
            0.0, lambda n=node: self._forward(n), priority=(source,)
        )

    # -- internals ---------------------------------------------------------

    def _node_up(self, node: SimNode) -> bool:
        return self._injector is None or self._injector.is_up(node.id)

    def _transmit_data(self, node: SimNode, attempt: int) -> None:
        self.data_transmissions += 1
        node.send(ReliableData(origin=node.id, source=self.source,
                               attempt=attempt))

    def _forward(self, node: SimNode) -> None:
        if node.state[self.FORWARDED] or not self._node_up(node):
            return
        node.state[self.FORWARDED] = True
        self._transmit_data(node, 0)
        self._await_acks(node, 0)

    def _await_acks(self, node: SimNode, attempt: int) -> None:
        delay = self.base_timeout * (self.backoff ** attempt)
        self.network.sim.schedule(
            delay,
            lambda n=node, a=attempt: self._check_acks(n, a),
            priority=(node.id,),
        )

    def _missing(self, node: SimNode) -> list:
        have: Set[NodeId] = node.state[self.HAVE]  # type: ignore[assignment]
        return [
            w for w in sorted(self.network.graph.neighbours_view(node.id))
            if w not in have and w not in self._presumed_dead
        ]

    def _check_acks(self, node: SimNode, attempt: int) -> None:
        if not self._node_up(node):
            return  # a crashed CPU runs no ARQ logic
        missing = self._missing(node)
        if not missing:
            return
        if attempt >= self.max_retries:
            for w in missing:
                self.gave_up.add((node.id, w))
            newly = [w for w in missing if w not in self._presumed_dead]
            self._presumed_dead.update(missing)
            if self._fallback is not None and newly:
                self._repair(newly)
            return
        self.retransmissions += 1
        self._transmit_data(node, attempt + 1)
        self._await_acks(node, attempt + 1)

    def _repair(self, dead: Iterable[NodeId]) -> None:
        assert self._fallback is not None
        repaired = self._fallback.backbone_after_failures(dead)
        new_relays = (repaired - self._presumed_dead) | {self.source}
        promoted = new_relays - self._relays
        self._relays |= new_relays
        self._promoted |= promoted
        # A promoted node that already holds the packet forwards right away;
        # the rest forward on first reception like any relay.
        for v in sorted(promoted):
            node = self.network.node(v)
            if node.state[self.RECEIVED] is not None \
                    and not node.state[self.FORWARDED]:
                self.network.sim.schedule(
                    0.0, lambda n=node: self._forward(n), priority=(v,)
                )

    def _send_ack(self, node: SimNode) -> None:
        self.ack_transmissions += 1
        node.send(ReliableAck(origin=node.id, source=self.source))

    def _on_data(self, node: SimNode, sender: NodeId,
                 message: Message) -> None:
        assert isinstance(message, ReliableData)
        have: Set[NodeId] = node.state[self.HAVE]  # type: ignore[assignment]
        have.add(sender)  # a data transmission is an implicit ACK
        first = node.state[self.RECEIVED] is None
        if first:
            node.state[self.RECEIVED] = self.network.sim.now
            # One broadcast ACK answers every neighbouring forwarder.
            self._send_ack(node)
        elif message.attempt > 0:
            # A retransmission means some forwarder missed our ACK.
            self._send_ack(node)
        if first and node.id in self._relays:
            self._forward(node)

    def _on_ack(self, node: SimNode, sender: NodeId,
                message: Message) -> None:
        assert isinstance(message, ReliableAck)
        have: Set[NodeId] = node.state[self.HAVE]  # type: ignore[assignment]
        have.add(sender)

    # -- outcome -----------------------------------------------------------

    def outcome(self) -> ReliableOutcome:
        """Collect the outcome after the phase ran to quiescence."""
        reception: Dict[NodeId, int] = {}
        forwarded: Set[NodeId] = set()
        for node in self.network:
            t = node.state[self.RECEIVED]
            if t is not None:
                reception[node.id] = int(t)  # type: ignore[arg-type]
            if node.state[self.FORWARDED]:
                forwarded.add(node.id)
        result = BroadcastResult(
            source=self.source,
            algorithm=self.algorithm,
            forward_nodes=frozenset(forwarded),
            received=frozenset(reception),
            reception_time=reception,
            transmissions=self.data_transmissions,
        )
        return ReliableOutcome(
            result=result,
            data_transmissions=self.data_transmissions,
            ack_transmissions=self.ack_transmissions,
            retransmissions=self.retransmissions,
            declared_dead=frozenset(self._presumed_dead),
            promoted=frozenset(self._promoted),
            gave_up=frozenset(self.gave_up),
        )


def reliable_si(
    network: SimNetwork,
    structure: ClusterStructure,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    fallback: bool = True,
    injector: Optional[FaultInjector] = None,
    **arq: float,
) -> ReliableBroadcast:
    """Reliable broadcast over the static (source-independent) backbone.

    The relay set is the static backbone's CDS — identical forwarding plan
    to :func:`~repro.broadcast.si_cds.broadcast_si` — plus the ARQ layer
    and, with ``fallback=True``, mid-broadcast backbone repair.
    """
    backbone = build_static_backbone(structure, policy)
    return ReliableBroadcast(
        network,
        backbone.nodes,
        fallback=BackboneFallback(structure.graph, policy) if fallback
        else None,
        injector=injector,
        algorithm=f"reliable-si-cds[{policy.label}]",
        **arq,
    )


def reliable_sd(
    network: SimNetwork,
    structure: ClusterStructure,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    fallback: bool = True,
    injector: Optional[FaultInjector] = None,
    **arq: float,
) -> ReliableBroadcast:
    """Reliable broadcast over the dynamic (source-dependent) forward plan.

    The initial relay set is the SD-CDS forward-node set for ``source`` on
    the pre-fault topology (a dry run of
    :func:`~repro.broadcast.sd_cds.broadcast_sd`); faults striking the plan
    are absorbed by retransmission and, with ``fallback=True``, by
    re-entering gateway selection on the survivor topology.  ``start`` must
    be called with the same ``source``.
    """
    plan = broadcast_sd(structure, source, policy=policy).result
    protocol = ReliableBroadcast(
        network,
        plan.forward_nodes,
        fallback=BackboneFallback(structure.graph, policy) if fallback
        else None,
        injector=injector,
        algorithm=f"reliable-sd-cds[{policy.label}]",
        **arq,
    )
    protocol.planned_source = source
    return protocol


def reliable_flooding_plan(graph: Graph, source: NodeId) -> FrozenSet[NodeId]:
    """Relay set for a reliable flood (every node forwards) — convenience
    for benchmarks that compare against the redundancy ceiling."""
    if source not in graph:
        raise NodeNotFoundError(source)
    return frozenset(graph.nodes())


__all__ = [
    "BackboneFallback",
    "ReliableAck",
    "ReliableBroadcast",
    "ReliableData",
    "ReliableOutcome",
    "reliable_flooding_plan",
    "reliable_sd",
    "reliable_si",
]
