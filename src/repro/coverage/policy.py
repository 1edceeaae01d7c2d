"""Policy dispatch: compute coverage sets under either definition."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro import perf
from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet
from repro.coverage.three_hop import three_hop_arrays, three_hop_coverage
from repro.coverage.two_five_hop import two_five_hop_arrays, two_five_hop_coverage
from repro.graph.csr import CSR_CUTOVER
from repro.types import CoveragePolicy, NodeId

if TYPE_CHECKING:
    from repro.topology.view import TopologyView


def compute_coverage_arrays(
    structure: ClusterStructure,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
) -> CoverageArrays:
    """Batched coverage sets of every clusterhead, in array form.

    The CSR counterpart of :func:`compute_all_coverage_sets` (materialising
    the result is bit-identical to it); exposed separately so array-native
    callers can keep going without building per-head objects.
    """
    if policy is CoveragePolicy.TWO_FIVE_HOP:
        return two_five_hop_arrays(structure.csr, structure.head_row)
    if policy is CoveragePolicy.THREE_HOP:
        return three_hop_arrays(structure.csr, structure.head_row)
    raise ValueError(f"unknown coverage policy {policy!r}")


def compute_coverage_set(
    structure: ClusterStructure,
    head: NodeId,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    *,
    view: Optional["TopologyView"] = None,
) -> CoverageSet:
    """Coverage set of ``head`` under ``policy``.

    Args:
        structure: A finished clustering.
        head: The clusterhead whose set to build.
        policy: Which coverage definition to apply.
        view: Shared topology view (defaults to the structure's own).
    """
    if policy is CoveragePolicy.TWO_FIVE_HOP:
        return two_five_hop_coverage(structure, head, view=view)
    if policy is CoveragePolicy.THREE_HOP:
        return three_hop_coverage(structure, head, view=view)
    raise ValueError(f"unknown coverage policy {policy!r}")


@perf.timed("coverage")
def compute_all_coverage_sets(
    structure: ClusterStructure,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    *,
    view: Optional["TopologyView"] = None,
) -> Dict[NodeId, CoverageSet]:
    """Coverage sets for every clusterhead, keyed by head id.

    All heads share one :class:`~repro.topology.view.TopologyView` (the
    given one, or the structure's), so neighbour frozensets and bounded
    BFS distances computed for one head are reused by the others.

    At ``n >= CSR_CUTOVER`` (and no caller-supplied view) the per-head set
    walks are replaced by the batched CSR kernels plus materialisation —
    same result, one vectorised pass.
    """
    if view is None and len(structure.graph) >= CSR_CUTOVER:
        return compute_coverage_arrays(structure, policy).materialise_all()
    if view is None:
        view = structure.topology
    return {
        h: compute_coverage_set(structure, h, policy, view=view)
        for h in structure.sorted_heads()
    }
