"""Set-property predicates: dominating sets, independent sets, CDSs.

These are the correctness yardsticks for everything the paper builds:
clusterheads must form an independent dominating set, and both backbones
must be connected dominating sets (Theorems 1 and 2).  Degree statistics
back the average-degree calibration checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Set

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.connectivity import is_connected
from repro.types import NodeId


def _validated(graph: Graph, nodes: Iterable[NodeId]) -> Set[NodeId]:
    out = set(nodes)
    for v in out:
        if v not in graph:
            raise NodeNotFoundError(v)
    return out


def is_dominating_set(graph: Graph, nodes: Iterable[NodeId]) -> bool:
    """Whether every node is in ``nodes`` or adjacent to a node in it."""
    dom = _validated(graph, nodes)
    for v in graph:
        if v in dom:
            continue
        if not (graph.neighbours_view(v) & dom):
            return False
    return True


def is_independent_set(graph: Graph, nodes: Iterable[NodeId]) -> bool:
    """Whether no two nodes in ``nodes`` are adjacent."""
    ind = _validated(graph, nodes)
    for v in ind:
        if graph.neighbours_view(v) & ind:
            return False
    return True


def is_connected_dominating_set(graph: Graph, nodes: Iterable[NodeId]) -> bool:
    """Whether ``nodes`` dominates the graph and induces a connected subgraph.

    By convention an empty set is a CDS only of the empty graph, and a CDS of
    a single-node graph is that node itself.
    """
    cds = _validated(graph, nodes)
    if graph.num_nodes == 0:
        return len(cds) == 0
    if not cds:
        return False
    if not is_dominating_set(graph, cds):
        return False
    return is_connected(graph.subgraph(cds))


@dataclass(frozen=True, slots=True)
class DegreeStats:
    """Summary of a graph's degree distribution."""

    mean: float
    minimum: int
    maximum: int
    std: float

    @property
    def delta(self) -> int:
        """The paper's ``Δ`` — the maximum node degree."""
        return self.maximum


def degree_stats(graph: Graph) -> DegreeStats:
    """Degree statistics of ``graph`` (empty graph yields all zeros)."""
    if graph.num_nodes == 0:
        return DegreeStats(0.0, 0, 0, 0.0)
    degrees = np.array([graph.degree(v) for v in graph], dtype=float)
    return DegreeStats(
        mean=float(degrees.mean()),
        minimum=int(degrees.min()),
        maximum=int(degrees.max()),
        std=float(degrees.std()),
    )
