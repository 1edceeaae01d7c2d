"""The MO_CDS baseline (Alzoubi, Wan, Frieder — as described by the paper).

The paper's comparison algorithm: after lowest-ID clustering, "each
clusterhead selects a node to connect each 2-hop clusterhead and a pair of
nodes to connect each 3-hop clusterhead" over the **3-hop** coverage set.
There is no greedy merging across targets; sharing only arises incidentally
when the deterministic per-target choice lands on the same node.  Our
deterministic choice is the lowest-id connector for 2-hop targets and the
lexicographically smallest relay pair for 3-hop targets.

The full MobiHoc'02 construction has additional machinery (induced tree and
responsibility rules); the paper treats MO_CDS as "a modified version of the
static backbone with the 3-hop coverage set", which is exactly what this
module implements.  See DESIGN.md, "MO_CDS per-target selection".
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.backbone.gateway_selection import GatewaySelection
from repro.backbone.static_backbone import Backbone
from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import compute_all_coverage_sets
from repro.types import CoveragePolicy, NodeId


def _per_target_selection(cov: CoverageSet) -> GatewaySelection:
    """One connector per 2-hop target, one pair per 3-hop target."""
    gateways: set[NodeId] = set()
    connectors: Dict[NodeId, Tuple[NodeId, ...]] = {}
    for ch in sorted(cov.c2):
        v = min(cov.direct_witnesses[ch])
        gateways.add(v)
        connectors[ch] = (v,)
    for ch in sorted(cov.c3):
        v, w = min(cov.indirect_witnesses[ch])
        gateways.update((v, w))
        connectors[ch] = (v, w)
    return GatewaySelection(head=cov.head, gateways=frozenset(gateways),
                            connectors=connectors)


def build_mo_cds(
    structure: ClusterStructure,
    coverage_sets: Optional[Mapping[NodeId, CoverageSet]] = None,
) -> Backbone:
    """Build the MO_CDS baseline backbone.

    Args:
        structure: A finished clustering.
        coverage_sets: Reuse pre-computed **3-hop** coverage sets.

    Returns:
        The MO_CDS :class:`~repro.backbone.static_backbone.Backbone`.
    """
    if coverage_sets is None:
        coverage_sets = compute_all_coverage_sets(structure, CoveragePolicy.THREE_HOP)
    selections = {
        head: _per_target_selection(cov) for head, cov in coverage_sets.items()
    }
    return Backbone(
        structure=structure,
        policy=CoveragePolicy.THREE_HOP,
        coverage_sets=dict(coverage_sets),
        selections=selections,
        algorithm="mo-cds",
    )
