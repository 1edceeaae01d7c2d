"""Churn metrics between consecutive cluster structures / backbones.

Besides the set-level churn, :func:`resignalling_messages` counts exactly
which protocol messages an incremental maintainer of the static backbone
would resend between two snapshots, and :func:`rebuild_messages` what a
from-scratch rebuild (as :func:`repro.protocols.runner.run_distributed_build`
sends) would cost instead — the incremental-vs-rebuild saving the dynamic
backbone renders moot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.backbone.static_backbone import Backbone
from repro.cluster.state import ClusterStructure
from repro.errors import ConfigurationError
from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class ClusterChurn:
    """How much the cluster structure changed between two snapshots.

    Attributes:
        heads_gained: Nodes that became clusterheads.
        heads_lost: Nodes that stopped being clusterheads.
        reassigned_members: Non-heads (in both snapshots) whose head changed.
        total_nodes: Network size (denominator for rates).
    """

    heads_gained: FrozenSet[NodeId]
    heads_lost: FrozenSet[NodeId]
    reassigned_members: FrozenSet[NodeId]
    total_nodes: int

    @property
    def role_change_count(self) -> int:
        """Nodes whose role flipped."""
        return len(self.heads_gained) + len(self.heads_lost)

    @property
    def churn_rate(self) -> float:
        """Fraction of nodes with a role flip or head reassignment."""
        if self.total_nodes == 0:
            return 0.0
        affected = (
            len(self.heads_gained)
            + len(self.heads_lost)
            + len(self.reassigned_members)
        )
        return affected / self.total_nodes


def cluster_churn(before: ClusterStructure, after: ClusterStructure) -> ClusterChurn:
    """Churn between two clusterings of the same node set."""
    if set(before.head_of) != set(after.head_of):
        raise ConfigurationError("snapshots must cover the same node set")
    heads_before = before.clusterheads
    heads_after = after.clusterheads
    reassigned = frozenset(
        v
        for v in before.head_of
        if v not in heads_before
        and v not in heads_after
        and before.head_of[v] != after.head_of[v]
    )
    return ClusterChurn(
        heads_gained=frozenset(heads_after - heads_before),
        heads_lost=frozenset(heads_before - heads_after),
        reassigned_members=reassigned,
        total_nodes=len(before.head_of),
    )


@dataclass(frozen=True, slots=True)
class BackboneChurn:
    """How much the static backbone changed between two snapshots.

    Attributes:
        gateways_gained: Newly designated gateways.
        gateways_lost: Nodes no longer gateways.
        heads_with_new_selection: Clusterheads (present in both snapshots)
            whose coverage set or gateway selection changed — each would
            re-run the CH_HOP gathering and re-issue a GATEWAY message in a
            live network, so this is the maintenance-signalling proxy.
        total_nodes: Network size.
    """

    gateways_gained: FrozenSet[NodeId]
    gateways_lost: FrozenSet[NodeId]
    heads_with_new_selection: FrozenSet[NodeId]
    total_nodes: int

    @property
    def gateway_turnover(self) -> int:
        """Total gateway set symmetric difference."""
        return len(self.gateways_gained) + len(self.gateways_lost)

    @property
    def resignalling_rate(self) -> float:
        """Fraction of surviving heads that must re-signal."""
        if self.total_nodes == 0:
            return 0.0
        return len(self.heads_with_new_selection) / self.total_nodes


def backbone_churn(before: Backbone, after: Backbone) -> BackboneChurn:
    """Churn between two static backbones of the same node set."""
    if set(before.structure.head_of) != set(after.structure.head_of):
        raise ConfigurationError("snapshots must cover the same node set")
    surviving_heads = before.structure.clusterheads & after.structure.clusterheads
    changed = set()
    for head in surviving_heads:
        cov_before = before.coverage_sets[head]
        cov_after = after.coverage_sets[head]
        sel_before = before.selections[head]
        sel_after = after.selections[head]
        if (
            cov_before.all_targets != cov_after.all_targets
            or sel_before.gateways != sel_after.gateways
        ):
            changed.add(head)
    return BackboneChurn(
        gateways_gained=frozenset(after.gateways - before.gateways),
        gateways_lost=frozenset(before.gateways - after.gateways),
        heads_with_new_selection=frozenset(changed),
        total_nodes=len(before.structure.head_of),
    )


def _hop2_content(structure: ClusterStructure, v: NodeId) -> FrozenSet:
    """The CH_HOP2 entries non-head ``v`` announces (2.5-hop semantics)."""
    my_heads = structure.neighbouring_clusterheads(v)
    entries = set()
    for w in structure.topology.neighbours(v):
        if structure.is_clusterhead(w):
            continue
        ch = structure.head_of[w]
        if ch not in my_heads:
            entries.add((ch, w))
    return frozenset(entries)


def _gateway_message_cost(backbone: Backbone, head: NodeId) -> int:
    """One GATEWAY send plus the TTL-2 forwards by first-hop gateways."""
    gateways = backbone.selections[head].gateways
    return 1 + len(gateways & backbone.structure.topology.neighbours(head))


def resignalling_messages(before: Backbone, after: Backbone) -> Dict[str, int]:
    """Messages an incremental maintainer resends between two snapshots.

    * ``hello`` — nodes whose neighbour set changed re-beacon;
    * ``declaration`` — nodes whose clusterhead changed re-declare;
    * ``ch_hop1`` / ``ch_hop2`` — non-heads whose neighbouring-head list /
      2-hop head entries changed (a newly demoted head sends both);
    * ``gateway`` — new heads, and surviving heads whose gateway selection
      changed, re-issue GATEWAY (plus the TTL-2 forwards by their
      first-hop gateways).
    """
    old, new = before.structure, after.structure
    if set(old.head_of) != set(new.head_of):
        raise ConfigurationError("snapshots must cover the same node set")
    changed_edges = set(old.graph.edges()) ^ set(new.graph.edges())
    messages = {
        "hello": len({v for e in changed_edges for v in e}),
        "declaration": 0,
        "ch_hop1": 0,
        "ch_hop2": 0,
        "gateway": 0,
    }
    for v, head in new.head_of.items():
        if old.head_of[v] != head:
            messages["declaration"] += 1
        if head == v:
            continue  # heads do not send CH_HOP messages
        if old.is_clusterhead(v):
            messages["ch_hop1"] += 1
            messages["ch_hop2"] += 1
            continue
        if (old.neighbouring_clusterheads(v)
                != new.neighbouring_clusterheads(v)):
            messages["ch_hop1"] += 1
        if _hop2_content(old, v) != _hop2_content(new, v):
            messages["ch_hop2"] += 1
    for head in new.clusterheads:
        if (head not in old.clusterheads
                or before.selections[head].gateways
                != after.selections[head].gateways):
            messages["gateway"] += _gateway_message_cost(after, head)
    return messages


def rebuild_messages(backbone: Backbone) -> int:
    """Messages a from-scratch build of ``backbone`` sends.

    One HELLO and one declaration per node, CH_HOP1 and CH_HOP2 per
    non-head, and one GATEWAY per head plus its first-hop forwards.
    """
    structure = backbone.structure
    n = structure.graph.num_nodes
    non_heads = n - len(structure.clusterheads)
    return 2 * n + 2 * non_heads + sum(
        _gateway_message_cost(backbone, h) for h in structure.clusterheads
    )
