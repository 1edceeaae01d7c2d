"""Tests for :mod:`repro.topology.view`.

The load-bearing property: on any graph, every memoized query of a
:class:`TopologyView` equals a fresh uncached computation on the
underlying graph, and a repeated query returns the cached object itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.traversal import bfs_distances
from repro.topology.view import MAX_DEPTH, TopologyView, as_view

from tests.strategies import connected_graphs


def line_graph(n: int) -> Graph:
    """A path 0-1-...-(n-1): distances are easy to reason about."""
    return Graph(edges=[(i, i + 1) for i in range(n - 1)])


def assert_view_fresh(view: TopologyView, graph: Graph) -> None:
    """Every cached query must equal its from-scratch counterpart."""
    nodes = graph.nodes()
    for v in nodes:
        assert view.neighbours(v) == graph.neighbours(v)
        assert view.sorted_neighbours(v) == tuple(sorted(graph.neighbours_view(v)))
        for depth in range(MAX_DEPTH + 1):
            assert dict(view.distances_within(v, depth)) == bfs_distances(
                graph, v, max_depth=depth
            )
    # A deterministic sample of pairs exercises the pair cache.
    for u in nodes[::2]:
        for v in nodes[1::3]:
            if u != v:
                expect = frozenset(
                    graph.neighbours_view(u) & graph.neighbours_view(v)
                )
                assert view.common_neighbours(u, v) == expect


class TestQueries:
    def test_matches_graph_on_static_topology(self):
        graph = line_graph(8)
        graph.add_edge(0, 4)
        view = TopologyView(graph)
        assert_view_fresh(view, graph)

    def test_cache_hits_accumulate(self):
        view = TopologyView(line_graph(5))
        assert view.neighbours(2) is view.neighbours(2)
        assert view.sorted_neighbours(2) is view.sorted_neighbours(2)
        assert view.distances_within(2, 3) is view.distances_within(2, 3)
        assert view.common_neighbours(1, 3) is view.common_neighbours(3, 1)

    def test_depth_bound_enforced(self):
        view = TopologyView(line_graph(5))
        with pytest.raises(ValueError):
            view.distances_within(0, MAX_DEPTH + 1)
        with pytest.raises(ValueError):
            view.distances_within(0, -1)

    def test_unknown_node_raises(self):
        view = TopologyView(line_graph(3))
        with pytest.raises(NodeNotFoundError):
            view.neighbours(99)
        with pytest.raises(NodeNotFoundError):
            view.distances_within(99, 2)


class TestAdapter:
    def test_as_view_wraps_graph(self):
        graph = line_graph(4)
        view = as_view(graph)
        assert view.graph is graph

    def test_as_view_passthrough(self):
        view = TopologyView(line_graph(4))
        assert as_view(view) is view

    def test_as_view_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_view({0: [1]})


class TestEquivalenceProperty:
    @settings(max_examples=200, deadline=None)
    @given(graph=connected_graphs(min_nodes=3, max_nodes=14))
    def test_any_graph_view_matches_fresh(self, graph):
        """On ≥200 generated graphs every query is exact, cold and warm."""
        view = TopologyView(graph)
        assert_view_fresh(view, graph)  # cold: every answer computed
        assert_view_fresh(view, graph)  # warm: every answer from the memo
