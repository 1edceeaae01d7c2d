"""Shared, read-only topology queries (the library's query plane).

The paper's protocols — 2.5/3-hop coverage sets, greedy gateway selection,
SI/SD-CDS broadcasting, MPR — all consume the same family of neighbourhood
queries.  This package serves them once:

* :class:`~repro.topology.view.TopologyView` memoizes neighbour frozensets,
  sorted neighbour tuples, bounded BFS distances (depth ≤ 3) and
  common-neighbour intersections over a graph that does not change; each
  :class:`~repro.cluster.state.ClusterStructure` shares one across every
  coverage set, selection and broadcast computed over it;
* :func:`~repro.topology.view.as_view` adapts a plain
  :class:`~repro.graph.adjacency.Graph` so every public signature that
  takes a graph keeps working.
"""

from repro.topology.view import MAX_DEPTH, TopologyLike, TopologyView, as_view

__all__ = [
    "TopologyView",
    "TopologyLike",
    "as_view",
    "MAX_DEPTH",
]
