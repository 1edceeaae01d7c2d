"""Cluster-based forwarding tree (Pagani & Rossi) — related-work baseline.

Section 2: "Pagani and Rossi set up a cluster-based forwarding tree for a
reliable broadcast process.  The forwarding tree is rooted at the
clusterhead of source and follows the order of clusterhead, gateway, then
clusterhead again to build the tree ... level by level until all the
clusters join in the tree."

We build that tree deterministically on top of this library's coverage
sets: BFS over the cluster graph from the source's clusterhead, attaching
each newly reached clusterhead through the connector path (one or two
gateways) its parent's gateway selection provides.  The tree's node set is
a source-dependent CDS; broadcasting along it forwards only tree nodes.

The paper's criticism — "such a forwarding tree is hard to maintain in
MANETs" — is measurable with :mod:`repro.maintenance`: the tree changes
with both topology *and* source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.backbone.gateway_selection import select_gateways
from repro.broadcast.result import BroadcastResult
from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import compute_all_coverage_sets
from repro.errors import BroadcastError, NodeNotFoundError
from repro.types import CoveragePolicy, NodeId


@dataclass(frozen=True)
class ForwardingTree:
    """The per-source tree over clusters.

    Attributes:
        root: The source's clusterhead.
        parent: Child clusterhead -> (parent clusterhead, connector path).
        nodes: All tree nodes (clusterheads + connector gateways).
    """

    root: NodeId
    parent: Mapping[NodeId, Tuple[NodeId, Tuple[NodeId, ...]]]
    nodes: FrozenSet[NodeId]

    @property
    def num_clusters(self) -> int:
        """Clusterheads in the tree (root included)."""
        return 1 + len(self.parent)


def build_forwarding_tree(
    structure: ClusterStructure,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    coverage_sets: Optional[Mapping[NodeId, CoverageSet]] = None,
) -> ForwardingTree:
    """Build the Pagani–Rossi style tree rooted at ``source``'s clusterhead.

    Args:
        structure: The clustering.
        source: The broadcast source (any node).
        policy: Coverage definition supplying the cluster links.
        coverage_sets: Pre-computed coverage sets.

    Returns:
        The :class:`ForwardingTree` spanning every cluster.

    Raises:
        BroadcastError: if some cluster is unreachable (disconnected graph).
    """
    if source not in structure.graph:
        raise NodeNotFoundError(source)
    if coverage_sets is None:
        coverage_sets = compute_all_coverage_sets(structure, policy)
    root = structure.head_of[source]
    parent: Dict[NodeId, Tuple[NodeId, Tuple[NodeId, ...]]] = {}
    seen = {root}
    queue: deque[NodeId] = deque([root])
    nodes = {root}
    while queue:
        head = queue.popleft()
        selection = select_gateways(coverage_sets[head])
        for child in sorted(selection.connectors):
            if child in seen:
                continue
            path = selection.connectors[child]
            parent[child] = (head, path)
            nodes.add(child)
            nodes.update(path)
            seen.add(child)
            queue.append(child)
    missing = structure.clusterheads - seen
    if missing:
        raise BroadcastError(
            f"forwarding tree from {source} cannot reach clusters "
            f"{sorted(missing)} (network disconnected?)"
        )
    return ForwardingTree(root=root, parent=parent, nodes=frozenset(nodes))


def broadcast_forwarding_tree(
    structure: ClusterStructure,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    coverage_sets: Optional[Mapping[NodeId, CoverageSet]] = None,
) -> Tuple[BroadcastResult, ForwardingTree]:
    """Broadcast along the per-source forwarding tree.

    The tree nodes act as the forwarding set (an SI-CDS restricted flood
    would behave identically once the tree is fixed); the source transmits
    even when it is not a tree node.

    Returns:
        The broadcast result and the tree it rode on.
    """
    tree = build_forwarding_tree(
        structure, source, policy=policy, coverage_sets=coverage_sets
    )
    from repro.broadcast.si_cds import broadcast_si

    result = broadcast_si(
        structure.graph, tree.nodes, source,
        algorithm=f"forwarding-tree[{policy.label}]",
    )
    return result, tree
