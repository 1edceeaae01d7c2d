"""Policy dispatch: compute coverage sets under either definition."""

from __future__ import annotations

from typing import Dict, Tuple

from repro import perf
from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet
from repro.coverage.three_hop import coverage_pair, three_hop_arrays, three_hop_coverage
from repro.coverage.two_five_hop import two_five_hop_arrays, two_five_hop_coverage
from repro.graph.csr import CSR_CUTOVER
from repro.types import CoveragePolicy, NodeId


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
) -> CoverageSet:
    """Coverage set of ``head`` under ``policy``.

    Args:
        structure: A finished clustering.
        head: The clusterhead whose set to build.
        policy: Which coverage definition to apply.
    """
    if policy is CoveragePolicy.TWO_FIVE_HOP:
        return two_five_hop_coverage(structure, head)
    if policy is CoveragePolicy.THREE_HOP:
        return three_hop_coverage(structure, head)
    raise ValueError(f"unknown coverage policy {policy!r}")


@perf.timed("coverage")
def compute_all_coverage_sets(
    structure: ClusterStructure,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
) -> Dict[NodeId, CoverageSet]:
    """Coverage sets for every clusterhead, keyed by head id.

    All heads share the structure's
    :class:`~repro.topology.view.TopologyView`, so neighbour frozensets and
    bounded BFS distances computed for one head are reused by the others.

    At ``n >= CSR_CUTOVER`` the per-head set walks are replaced by the
    batched CSR kernels plus materialisation — same result, one vectorised
    pass.
    """
    if len(structure.graph) >= CSR_CUTOVER:
        return compute_coverage_arrays(structure, policy).materialise_all()
    return {
        h: compute_coverage_set(structure, h, policy)
        for h in structure.sorted_heads()
    }


@perf.timed("coverage")
def compute_all_coverage_pairs(
    structure: ClusterStructure,
) -> Tuple[Dict[NodeId, CoverageSet], Dict[NodeId, CoverageSet]]:
    """``(two_five_hop, three_hop)``: what :func:`compute_all_coverage_sets`
    returns for each policy, from one walk per head
    (:func:`~repro.coverage.three_hop.coverage_pair`)."""
    two_five, three = {}, {}
    for h in structure.sorted_heads():
        two_five[h], three[h] = coverage_pair(structure, h)
    return two_five, three
