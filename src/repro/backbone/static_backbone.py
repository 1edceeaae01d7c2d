"""The static backbone: a cluster-based source-independent CDS.

Every clusterhead independently runs the greedy gateway selection over its
coverage set; the backbone is the union of all clusterheads and all selected
gateways (the nodes a GATEWAY message would inform).  Theorem 1: the result
is a source-independent CDS of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Mapping, Optional

from repro import perf
from repro.backbone.gateway_selection import (
    GatewaySelection,
    select_gateways,
    select_gateways_batch,
)
from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import (
    compute_all_coverage_sets,
    compute_coverage_arrays,
)
from repro.graph.csr import CSR_CUTOVER
from repro.types import CoveragePolicy, NodeId


@dataclass(frozen=True)
class Backbone:
    """A constructed backbone (static, or the MO_CDS baseline).

    Attributes:
        structure: The underlying clustering.
        policy: Coverage definition used.
        coverage_sets: Per-head coverage sets.
        selections: Per-head gateway selections.
        algorithm: Human-readable construction name (for reports).
    """

    structure: ClusterStructure
    policy: CoveragePolicy
    coverage_sets: Mapping[NodeId, CoverageSet]
    selections: Mapping[NodeId, GatewaySelection]
    algorithm: str

    @cached_property
    def gateways(self) -> FrozenSet[NodeId]:
        """Union of all selected gateways."""
        out: set[NodeId] = set()
        for sel in self.selections.values():
            out |= sel.gateways
        return frozenset(out)

    @cached_property
    def nodes(self) -> FrozenSet[NodeId]:
        """The backbone node set: clusterheads plus gateways (the CDS)."""
        return frozenset(self.structure.clusterheads) | self.gateways

    @property
    def size(self) -> int:
        """``|CDS|`` — the quantity plotted in the paper's Figure 6."""
        return len(self.nodes)

    def contains(self, v: NodeId) -> bool:
        """Whether node ``v`` forwards broadcasts under this backbone."""
        return v in self.nodes


def build_static_backbone(
    structure: ClusterStructure,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    coverage_sets: Optional[Mapping[NodeId, CoverageSet]] = None,
) -> Backbone:
    """Build the cluster-based SI-CDS backbone.

    Args:
        structure: A finished clustering.
        policy: 2.5-hop (paper default for the cheaper maintenance) or 3-hop.
        coverage_sets: Reuse pre-computed coverage sets (must match
            ``policy``); computed when omitted.

    Returns:
        The static :class:`Backbone`.
    """
    if coverage_sets is None and len(structure.graph) >= CSR_CUTOVER:
        # Batched CSR path: one vectorised coverage pass and one lock-step
        # greedy selection for all heads; materialised results are
        # bit-identical to the per-head walks below.
        with perf.stage("coverage"):
            arrays = compute_coverage_arrays(structure, policy)
            coverage_sets = arrays.materialise_all()
        with perf.stage("selection"):
            selections = select_gateways_batch(arrays).materialise_all()
        return Backbone(
            structure=structure,
            policy=policy,
            coverage_sets=dict(coverage_sets),
            selections=selections,
            algorithm=f"static-backbone[{policy.label}]",
        )
    if coverage_sets is None:
        coverage_sets = compute_all_coverage_sets(structure, policy)
    selections = {
        head: select_gateways(cov) for head, cov in coverage_sets.items()
    }
    return Backbone(
        structure=structure,
        policy=policy,
        coverage_sets=dict(coverage_sets),
        selections=selections,
        algorithm=f"static-backbone[{policy.label}]",
    )
