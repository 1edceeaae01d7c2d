"""The from-scratch object rebuild: the oracle of the kernel mobility session.

:class:`ScratchSession` steps a :class:`~repro.graph.network.Network` with
a mobility model and re-derives everything each tick over the dict/set
object layer: the unit-disk graph, the lowest-ID clustering, the static
backbone and connectivity.  The churn between two snapshots is read off as
node sets by :func:`cluster_churn` and :func:`backbone_churn`, and
:func:`session_network` turns a kernel session's arrays back into a
:class:`~repro.graph.network.Network` to compare against.
:class:`~repro.maintenance.kernels.KernelMobilitySession` must reproduce
every tick, and each of its churn counts must be the size of the matching
set here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.backbone.static_backbone import Backbone, build_static_backbone
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.errors import ConfigurationError
from repro.geometry.mobility import MobilityModel
from repro.graph.connectivity import is_connected
from repro.graph.network import Network
from repro.maintenance.kernels import KernelMobilitySession
from repro.types import CoveragePolicy, NodeId


def session_network(session: KernelMobilitySession) -> Network:
    """A kernel session's current snapshot as a :class:`Network`."""
    ids = session.csr.ids.tolist()
    return Network(
        graph=session.csr.to_graph(),
        positions={v: (float(x), float(y))
                   for v, (x, y) in zip(ids, session.positions)},
        radius=session.radius,
        area=session.area,
        torus=session.torus,
    )


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


@dataclass(frozen=True)
class ScratchTick:
    """One oracle tick: the rebuilt snapshot and its churn vs the last."""

    time: float
    network: Network
    structure: ClusterStructure
    backbone: Backbone
    connected: bool
    cluster_churn: ClusterChurn
    backbone_churn: BackboneChurn
    link_changes: int


class ScratchSession:
    """Step ``network`` with ``mobility``; rebuild every structure each tick.

    Positions are stepped in ascending-id row order, the order the kernel
    session steps them in.
    """

    def __init__(
        self,
        network: Network,
        mobility: MobilityModel,
        policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    ) -> None:
        self.network = network
        self.mobility = mobility
        self.policy = policy
        self.time = 0.0
        self._ids = network.graph.nodes()
        self.structure = lowest_id_clustering(network.graph)
        self.backbone = build_static_backbone(self.structure, policy)

    def step(self, dt: float = 1.0) -> ScratchTick:
        old_network, old_structure, old_backbone = (
            self.network, self.structure, self.backbone)
        moved = self.mobility.step(old_network.position_array(self._ids), dt)
        self.network = old_network.moved(moved, order=self._ids)
        self.time += dt
        self.structure = lowest_id_clustering(self.network.graph)
        self.backbone = build_static_backbone(self.structure, self.policy)
        changed = set(old_network.graph.edges()) ^ set(self.network.graph.edges())
        return ScratchTick(
            time=self.time,
            network=self.network,
            structure=self.structure,
            backbone=self.backbone,
            connected=is_connected(self.network.graph),
            cluster_churn=cluster_churn(old_structure, self.structure),
            backbone_churn=backbone_churn(old_backbone, self.backbone),
            link_changes=len(changed),
        )
