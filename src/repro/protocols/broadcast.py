"""Phase 5: distributed broadcasts over the simulated network.

Two protocols, mirroring the centralised implementations message-for-message
(the determinism contract of :mod:`repro.sim` makes the correspondence
exact, which the equivalence tests exploit):

* :class:`DistributedSIBroadcast` — flood restricted to a marked backbone;
* :class:`DistributedSDBroadcast` — the dynamic backbone: heads select
  forward gateways on first reception using their gathered coverage sets and
  the packet's piggyback; designated gateways relay.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.backbone.gateway_selection import select_gateways
from repro.broadcast.result import BroadcastResult
from repro.rng import RngLike, ensure_rng
from repro.coverage.entries import CoverageSet
from repro.errors import ProtocolError
from repro.protocols.clustering import ROLE
from repro.protocols.coverage import CoverageExchangeProtocol, _neighbour_heads
from repro.sim.messages import BroadcastPacket, Message
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.types import NodeId, NodeRole, PruningLevel


def _channel_counters(network: SimNetwork) -> Optional[Dict[str, int]]:
    """The medium's PHY/MAC counters, or ``None`` on the bare medium."""
    channel = network.medium.channel
    return None if channel is None else channel.stats().as_dict()


class DistributedSIBroadcast:
    """Flooding restricted to a source-independent CDS.

    Args:
        network: The simulated network.
        backbone_nodes: The CDS membership (e.g. from
            :meth:`~repro.protocols.gateway.GatewayDesignationProtocol.backbone_nodes`).
    """

    RECEIVED = "si_bcast.received_at"
    FORWARDED = "si_bcast.forwarded"

    def __init__(self, network: SimNetwork,
                 backbone_nodes: Iterable[NodeId],
                 *, jitter_slots: int = 0, rng: RngLike = None) -> None:
        self.network = network
        self.backbone = frozenset(backbone_nodes)
        self.jitter_slots = int(jitter_slots)
        self._jitter_rng = ensure_rng(rng) if jitter_slots else None
        for node in network:
            node.state[self.RECEIVED] = None
            node.state[self.FORWARDED] = False
            # Broadcast phases may run repeatedly on one network
            # (several sources / pruning levels), so take over the
            # handler instead of requiring a fresh slot.
            node.replace_handler(BroadcastPacket, self._on_packet)

    def start(self, source: NodeId) -> None:
        """Schedule the source's transmission at the current sim time."""
        self.source = source
        node = self.network.node(source)
        node.state[self.RECEIVED] = self.network.sim.now
        node.state[self.FORWARDED] = True
        self.network.sim.schedule(
            0.0,
            lambda n=node: n.send(BroadcastPacket(origin=n.id, source=n.id)),
            priority=(source,),
        )

    def _send_jittered(self, node: SimNode, message: Message) -> None:
        """Relay now, or after a random whole-slot back-off (collision MACs)."""
        if self._jitter_rng is None:
            node.send(message)
            return
        delay = float(self._jitter_rng.integers(0, self.jitter_slots + 1))
        self.network.sim.schedule(
            delay, lambda n=node, m=message: n.send(m), priority=(node.id,)
        )

    def _on_packet(self, node: SimNode, sender: NodeId, message: Message) -> None:
        if node.state[self.RECEIVED] is None:
            node.state[self.RECEIVED] = self.network.sim.now
            if node.id in self.backbone and not node.state[self.FORWARDED]:
                node.state[self.FORWARDED] = True
                self._send_jittered(node, message)

    def result(self) -> BroadcastResult:
        """Collect the outcome after the phase ran to quiescence."""
        reception: Dict[NodeId, int] = {}
        forwarded: Set[NodeId] = set()
        for node in self.network:
            t = node.state[self.RECEIVED]
            if t is not None:
                reception[node.id] = int(t)  # type: ignore[arg-type]
            if node.state[self.FORWARDED]:
                forwarded.add(node.id)
        return BroadcastResult(
            source=self.source,
            algorithm="distributed-si-cds",
            forward_nodes=frozenset(forwarded),
            received=frozenset(reception),
            reception_time=reception,
            transmissions=len(forwarded),
            channel=_channel_counters(self.network),
        )


class DistributedSDBroadcast:
    """The dynamic backbone broadcast, message-driven.

    Clusterheads must have completed the coverage exchange.  The protocol
    follows :mod:`repro.broadcast.sd_cds` exactly, including the
    relay-per-designating-head rule (see DESIGN.md).

    Args:
        network: The simulated network.
        coverage: The completed coverage-exchange phase.
        pruning: Piggyback exploitation level.
    """

    RECEIVED = "sd_bcast.received_at"
    HEAD_DONE = "sd_bcast.head_forwarded"
    RELAYED_FOR = "sd_bcast.relayed_for"

    def __init__(
        self,
        network: SimNetwork,
        coverage: CoverageExchangeProtocol,
        pruning: PruningLevel = PruningLevel.FULL,
        *,
        jitter_slots: int = 0,
        rng: RngLike = None,
    ) -> None:
        self.network = network
        self.coverage = coverage
        self.pruning = pruning
        self.jitter_slots = int(jitter_slots)
        self._jitter_rng = ensure_rng(rng) if jitter_slots else None
        self.forward_sets: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._coverage_cache: Dict[NodeId, CoverageSet] = {}
        self.transmissions = 0
        for node in network:
            if ROLE not in node.state:
                raise ProtocolError(
                    f"node {node.id}: clustering must run before SD broadcast"
                )
            node.state[self.RECEIVED] = None
            node.state[self.HEAD_DONE] = False
            node.state[self.RELAYED_FOR] = set()
            # Broadcast phases may run repeatedly on one network
            # (several sources / pruning levels), so take over the
            # handler instead of requiring a fresh slot.
            node.replace_handler(BroadcastPacket, self._on_packet)

    def _coverage_of(self, head: NodeId) -> CoverageSet:
        cov = self._coverage_cache.get(head)
        if cov is None:
            cov = self._coverage_cache[head] = self.coverage.coverage_set_of(head)
        return cov

    def start(self, source: NodeId) -> None:
        """Originate the broadcast at ``source`` at the current sim time."""
        self.source = source
        node = self.network.node(source)
        node.state[self.RECEIVED] = self.network.sim.now
        if node.state[ROLE] is NodeRole.CLUSTERHEAD:
            self.network.sim.schedule(
                0.0, lambda n=node: self._head_transmit(n, None),
                priority=(source,),
            )
        else:
            relay_heads = (
                _neighbour_heads(node)
                if self.pruning is PruningLevel.FULL
                else frozenset()
            )
            packet = BroadcastPacket(
                origin=source, source=source, head=None,
                relay_heads=relay_heads,
            )
            self.network.sim.schedule(
                0.0, lambda n=node, p=packet: self._transmit(n, p),
                priority=(source,),
            )

    def _transmit(self, node: SimNode, packet: BroadcastPacket) -> None:
        self.transmissions += 1
        if self._jitter_rng is None:
            node.send(packet)
            return
        delay = float(self._jitter_rng.integers(0, self.jitter_slots + 1))
        self.network.sim.schedule(
            delay, lambda n=node, p=packet: n.send(p), priority=(node.id,)
        )

    def _exclusions(self, packet: Optional[BroadcastPacket]) -> FrozenSet[NodeId]:
        if packet is None or self.pruning is PruningLevel.NONE:
            return frozenset()
        excl: Set[NodeId] = set(packet.coverage)
        if packet.head is not None:
            excl.add(packet.head)
        if self.pruning is PruningLevel.FULL:
            excl |= packet.relay_heads
        return frozenset(excl)

    def _head_transmit(self, node: SimNode,
                       via: Optional[BroadcastPacket]) -> None:
        node.state[self.HEAD_DONE] = True
        cov = self._coverage_of(node.id)
        targets = cov.all_targets - self._exclusions(via)
        selection = select_gateways(cov, targets)
        self.forward_sets[node.id] = selection.gateways
        self._transmit(
            node,
            BroadcastPacket(
                origin=node.id,
                source=self.source,
                head=node.id,
                coverage=cov.all_targets,
                forward_set=selection.gateways,
                relay_heads=frozenset(),
            ),
        )

    def _on_packet(self, node: SimNode, sender: NodeId, message: Message) -> None:
        assert isinstance(message, BroadcastPacket)
        if node.state[self.RECEIVED] is None:
            node.state[self.RECEIVED] = self.network.sim.now
        if node.state[ROLE] is NodeRole.CLUSTERHEAD:
            if not node.state[self.HEAD_DONE]:
                self._head_transmit(node, message)
            return
        relayed: Set[Optional[NodeId]] = node.state[self.RELAYED_FOR]  # type: ignore[assignment]
        if node.id in message.forward_set and message.head not in relayed:
            relayed.add(message.head)
            self._transmit(
                node,
                BroadcastPacket(
                    origin=node.id,
                    source=message.source,
                    head=message.head,
                    coverage=message.coverage,
                    forward_set=message.forward_set,
                    relay_heads=message.relay_heads | _neighbour_heads(node),
                ),
            )

    def result(self) -> BroadcastResult:
        """Collect the outcome after quiescence."""
        reception: Dict[NodeId, int] = {}
        forwarded: Set[NodeId] = set()
        for node in self.network:
            t = node.state[self.RECEIVED]
            if t is not None:
                reception[node.id] = int(t)  # type: ignore[arg-type]
            if node.state[self.HEAD_DONE] or node.state[self.RELAYED_FOR]:
                forwarded.add(node.id)
        forwarded.add(self.source)
        return BroadcastResult(
            source=self.source,
            algorithm=f"distributed-sd-cds[{self.coverage.policy.label},"
                      f"{self.pruning.value}]",
            forward_nodes=frozenset(forwarded),
            received=frozenset(reception),
            reception_time=reception,
            transmissions=self.transmissions,
            channel=_channel_counters(self.network),
        )
