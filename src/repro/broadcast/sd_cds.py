"""Broadcasting in the cluster-based SD-CDS (dynamic) backbone.

This is the paper's main contribution (Section 3, "Broadcasting in a
Cluster-Based SD-CDS Backbone"):

1. A non-clusterhead source transmits once; its clusterhead takes over.
2. A clusterhead, on **first** reception, selects forward gateways covering
   its coverage set *pruned* by the piggybacked history — the upstream
   head's coverage set ``C(u)``, the upstream head itself, and (2.5-hop /
   ``FULL`` pruning) clusterheads adjacent to relays on the delivery path
   (the paper's ``N(r)`` rule) — then transmits, piggybacking its own
   original ``C(v)`` and forward-node set ``F(v)``.
3. A non-clusterhead relays a packet copy that designates it in ``F``.

Model notes (see DESIGN.md, "Interpretation decisions"):

* Transmissions have unit delay; simultaneous arrivals are processed in
  ascending sender id, making runs deterministic.
* Every clusterhead forwards exactly once, on its first received copy (the
  dynamic backbone always contains all clusterheads).
* A gateway relays at most once **per designating clusterhead** — if two
  heads independently designate the same gateway, both relays happen; the
  *forward node set* still counts the node once (the paper's metric), while
  ``transmissions`` counts both.  This closes the designation race a strict
  first-copy-only rule would leave open and makes full delivery provable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro import perf
from repro.backbone.gateway_selection import select_gateways
from repro.broadcast.result import BroadcastResult
from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import compute_all_coverage_sets
from repro.errors import BroadcastError, NodeNotFoundError
from repro.types import CoveragePolicy, NodeId, PruningLevel

if TYPE_CHECKING:
    from repro.topology.view import TopologyView


@dataclass(frozen=True)
class Packet:
    """One in-flight copy of the broadcast packet with its piggyback.

    Attributes:
        origin: The clusterhead whose selection produced this copy (``None``
            for the initial transmission of a non-clusterhead source).
        coverage: The origin head's **original** coverage set ``C(u)`` (the
            paper piggybacks the pre-pruning set — the Section 3 illustration
            shows head 3 piggybacking ``C(3) = {1,2,4}``).
        forward_set: The origin head's forward-node set ``F(u)`` (first- and
            second-hop relays).
        relay_heads: Clusterheads adjacent to nodes that transmitted this
            copy along the current relay chain — the information behind the
            paper's ``N(r)`` pruning rule.
    """

    origin: Optional[NodeId]
    coverage: FrozenSet[NodeId]
    forward_set: FrozenSet[NodeId]
    relay_heads: FrozenSet[NodeId]


@dataclass(frozen=True)
class DynamicBroadcast:
    """A :class:`BroadcastResult` plus dynamic-backbone specifics.

    Attributes:
        result: The generic broadcast outcome.
        forward_sets: Per-clusterhead selected forward-node sets ``F(v)``
            (empty frozenset for heads that only broadcast locally).
        pruned_targets: Per-clusterhead targets remaining after pruning —
            what the head actually had to cover.
        pruning: The pruning level used.
    """

    result: BroadcastResult
    forward_sets: Mapping[NodeId, FrozenSet[NodeId]]
    pruned_targets: Mapping[NodeId, FrozenSet[NodeId]]
    pruning: PruningLevel

    @property
    def backbone_nodes(self) -> FrozenSet[NodeId]:
        """The source-dependent CDS this broadcast realised (Theorem 2).

        This is exactly the forward-node set: the clusterheads, the
        dynamically designated gateways, **and the source** — a non-head
        source's initial transmission can itself be a load-bearing link of
        the backbone (e.g. a member adjacent to two clusterheads whose
        pruned coverage sets are both empty), so it belongs to the CDS.
        """
        return self.result.forward_nodes

    @property
    def designated_gateways(self) -> FrozenSet[NodeId]:
        """Only the gateways the clusterheads selected on the fly."""
        gateways: Set[NodeId] = set()
        for f in self.forward_sets.values():
            gateways |= f
        return frozenset(gateways)


@perf.timed("broadcast")
def broadcast_sd(
    structure: ClusterStructure,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    pruning: PruningLevel = PruningLevel.FULL,
    coverage_sets: Optional[Mapping[NodeId, CoverageSet]] = None,
    view: Optional["TopologyView"] = None,
) -> DynamicBroadcast:
    """Run one dynamic-backbone broadcast.

    Args:
        structure: The clustering of the network.
        source: Originating node (clusterhead or member).
        policy: Coverage-set definition clusterheads use.
        pruning: How much piggybacked history to exploit (``FULL`` is the
            paper's protocol; ``BASIC``/``NONE`` exist for ablation).
        coverage_sets: Pre-computed coverage sets matching ``policy``.
        view: Shared topology view serving the propagation loop's neighbour
            queries (defaults to the structure's own view, so repeated
            broadcasts over one clustering share the memoized answers).

    Returns:
        A :class:`DynamicBroadcast`.
    """
    graph = structure.graph
    if source not in graph:
        raise NodeNotFoundError(source)
    if view is None:
        view = structure.topology
    if coverage_sets is None:
        coverage_sets = compute_all_coverage_sets(structure, policy, view=view)

    reception: Dict[NodeId, int] = {source: 0}
    forward_nodes: Set[NodeId] = set()
    transmissions = 0
    #: (gateway, designating head) pairs already relayed.
    relayed_for: Set[Tuple[NodeId, Optional[NodeId]]] = set()
    forwarded_heads: Set[NodeId] = set()
    forward_sets: Dict[NodeId, FrozenSet[NodeId]] = {}
    pruned_targets: Dict[NodeId, FrozenSet[NodeId]] = {}
    #: time -> transmissions to deliver, kept sorted by sender id.
    schedule: Dict[int, List[Tuple[NodeId, Packet]]] = {}

    def transmit(time: int, sender: NodeId, packet: Packet) -> None:
        nonlocal transmissions
        schedule.setdefault(time, []).append((sender, packet))
        forward_nodes.add(sender)
        transmissions += 1

    def exclusions(packet: Packet) -> FrozenSet[NodeId]:
        if pruning is PruningLevel.NONE:
            return frozenset()
        excl: Set[NodeId] = set(packet.coverage)
        if packet.origin is not None:
            excl.add(packet.origin)
        if pruning is PruningLevel.FULL:
            excl |= packet.relay_heads
        return frozenset(excl)

    def head_transmit(head: NodeId, time: int, via: Optional[Packet]) -> None:
        """Clusterhead ``head`` selects gateways and transmits at ``time``."""
        forwarded_heads.add(head)
        cov = coverage_sets[head]
        excl = exclusions(via) if via is not None else frozenset()
        targets = cov.all_targets - excl
        selection = select_gateways(cov, targets)
        forward_sets[head] = selection.gateways
        pruned_targets[head] = frozenset(targets)
        transmit(
            time,
            head,
            Packet(
                origin=head,
                coverage=cov.all_targets,
                forward_set=selection.gateways,
                # Heads have no neighbouring heads (independent set), so the
                # relay-head accumulator restarts empty at each head.
                relay_heads=frozenset(),
            ),
        )

    heads = structure.clusterheads

    # -- initiation --------------------------------------------------------
    if source in heads:
        head_transmit(source, 0, None)
    else:
        transmit(
            0,
            source,
            Packet(
                origin=None,
                coverage=frozenset(),
                forward_set=frozenset(),
                relay_heads=structure.neighbouring_clusterheads(source)
                if pruning is PruningLevel.FULL
                else frozenset(),
            ),
        )

    # -- synchronous unit-delay propagation ---------------------------------
    guard = 4 * graph.num_nodes + 8
    while schedule:
        t = min(schedule)
        if t > guard:
            raise BroadcastError(
                f"sd-cds broadcast from {source} did not terminate within "
                f"{guard} time units"
            )
        batch = sorted(schedule.pop(t), key=lambda sp: sp[0])
        for sender, packet in batch:
            for x in view.sorted_neighbours(sender):
                if x not in reception:
                    reception[x] = t + 1
                if x in heads:
                    if x not in forwarded_heads:
                        head_transmit(x, t + 1, packet)
                else:
                    key = (x, packet.origin)
                    if x in packet.forward_set and key not in relayed_for:
                        relayed_for.add(key)
                        transmit(
                            t + 1,
                            x,
                            Packet(
                                origin=packet.origin,
                                coverage=packet.coverage,
                                forward_set=packet.forward_set,
                                relay_heads=packet.relay_heads
                                | structure.neighbouring_clusterheads(x),
                            ),
                        )

    result = BroadcastResult(
        source=source,
        algorithm=f"sd-cds[{policy.label},{pruning.value}]",
        forward_nodes=frozenset(forward_nodes),
        received=frozenset(reception),
        reception_time=reception,
        transmissions=transmissions,
    )
    return DynamicBroadcast(
        result=result,
        forward_sets=forward_sets,
        pruned_targets=pruned_targets,
        pruning=pruning,
    )
