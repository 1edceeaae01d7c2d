"""Mobility sessions: drive a network through time and account maintenance.

A :class:`MobilitySession` owns a :class:`~repro.graph.network.Network` and a
:class:`~repro.geometry.mobility.MobilityModel`.  Each :meth:`step` moves the
nodes, rebuilds the unit disk graph, re-derives clustering and backbone, and
returns a :class:`MaintenanceReport` with the churn versus the previous tick
— the quantitative version of the paper's "maintaining a static backbone at
all times is costly" argument, which the mobility example and ablation bench
plot against node speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.backbone.static_backbone import Backbone, build_static_backbone
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.geometry.mobility import MobilityModel
from repro.graph.connectivity import is_connected
from repro.graph.csr import CSR_CUTOVER
from repro.graph.network import Network
from repro.maintenance.stability import (
    BackboneChurn,
    ClusterChurn,
    backbone_churn,
    cluster_churn,
)
from repro.types import CoveragePolicy


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one mobility tick.

    Attributes:
        time: Session time after the tick.
        network: The rebuilt network snapshot.
        structure: The re-derived clustering.
        backbone: The re-derived static backbone.
        connected: Whether the snapshot is connected (churn is reported
            regardless; broadcast experiments should skip disconnected
            snapshots like the paper discards disconnected samples).
        cluster_churn: Churn vs the previous snapshot (``None`` on the first
            tick).
        backbone_churn: Backbone churn vs the previous snapshot.
        link_changes: Number of edges that appeared plus disappeared.
    """

    time: float
    network: Network
    structure: ClusterStructure
    backbone: Backbone
    connected: bool
    cluster_churn: Optional[ClusterChurn]
    backbone_churn: Optional[BackboneChurn]
    link_changes: int


class MobilitySession:
    """Evolve a network under a mobility model, re-deriving the backbone.

    Args:
        network: Initial snapshot.
        mobility: The movement model (steps the position array).
        policy: Coverage policy for the maintained static backbone.
        kernel: Run the per-tick maintenance through the array-native
            :class:`~repro.maintenance.kernels.KernelMobilitySession`
            (CSR graph rebuild and edge-key diff, lowest-ID repair, full
            coverage and selection recompute on arrays), materialising the
            same per-tick networks, structures, backbones and churn
            reports.  ``None`` (the default) enables it from the CSR
            cutover up, for either policy.  ``False`` forces the
            from-scratch object-layer rebuild, the oracle the kernel is
            tested against.
    """

    def __init__(
        self,
        network: Network,
        mobility: MobilityModel,
        policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
        *,
        kernel: Optional[bool] = None,
    ) -> None:
        self.network = network
        self.mobility = mobility
        self.policy = policy
        self.time = 0.0
        self._ids = network.graph.nodes()
        if kernel is None:
            kernel = network.num_nodes >= CSR_CUTOVER
        self.kernel = bool(kernel)
        self._kernel_session = None
        if self.kernel:
            from repro.maintenance.kernels import KernelMobilitySession

            self._kernel_session = KernelMobilitySession(
                network.position_array(self._ids),
                network.radius,
                mobility,
                ids=np.asarray(self._ids, dtype=np.int64),
                area=network.area,
                torus=network.torus,
                policy=policy,
                connectivity=True,
            )
            self.structure = self._kernel_session.structure(network=network)
            self.backbone = self._kernel_session.backbone(self.structure)
        else:
            self.structure = lowest_id_clustering(network.graph)
            self.backbone = build_static_backbone(self.structure, policy)
        self.history: List[MaintenanceReport] = []

    def step(self, dt: float = 1.0) -> MaintenanceReport:
        """Advance the session by ``dt`` and rebuild all structures.

        Returns:
            The tick's :class:`MaintenanceReport` (also appended to
            :attr:`history`).
        """
        if self._kernel_session is not None:
            return self._step_kernel(dt)
        old_network = self.network
        old_structure = self.structure
        old_backbone = self.backbone
        positions = old_network.position_array(self._ids)
        moved = self.mobility.step(positions, dt)
        self.network = old_network.moved(moved, order=self._ids)
        self.time += dt
        self.structure = lowest_id_clustering(self.network.graph)
        self.backbone = build_static_backbone(self.structure, self.policy)
        old_edges = set(old_network.graph.edges())
        new_edges = set(self.network.graph.edges())
        report = MaintenanceReport(
            time=self.time,
            network=self.network,
            structure=self.structure,
            backbone=self.backbone,
            connected=is_connected(self.network.graph),
            cluster_churn=cluster_churn(old_structure, self.structure),
            backbone_churn=backbone_churn(old_backbone, self.backbone),
            link_changes=len(old_edges ^ new_edges),
        )
        self.history.append(report)
        return report

    def _step_kernel(self, dt: float) -> MaintenanceReport:
        """Advance one tick through the array-native kernel session."""
        kernel = self._kernel_session
        assert kernel is not None
        tick = kernel.step(dt)
        self.time += dt
        self.network = kernel.network()
        self.structure = kernel.structure(network=self.network)
        self.backbone = kernel.backbone(self.structure)
        churn = kernel.churn_ids()
        n = self.network.num_nodes
        connected = tick.connected
        if connected is None:
            connected = is_connected(self.network.graph)
        report = MaintenanceReport(
            time=self.time,
            network=self.network,
            structure=self.structure,
            backbone=self.backbone,
            connected=connected,
            cluster_churn=ClusterChurn(
                heads_gained=churn["heads_gained"],
                heads_lost=churn["heads_lost"],
                reassigned_members=churn["reassigned"],
                total_nodes=n,
            ),
            backbone_churn=BackboneChurn(
                gateways_gained=churn["gateways_gained"],
                gateways_lost=churn["gateways_lost"],
                heads_with_new_selection=churn["resignalling"],
                total_nodes=n,
            ),
            link_changes=tick.link_changes,
        )
        self.history.append(report)
        return report

    def run(self, ticks: int, dt: float = 1.0) -> List[MaintenanceReport]:
        """Run ``ticks`` steps and return their reports."""
        return [self.step(dt) for _ in range(ticks)]
