"""Tests for the Graph adjacency structure."""

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph


@pytest.fixture
def triangle():
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_nodes_without_edges(self):
        g = Graph(nodes=[3, 1, 2])
        assert g.nodes() == [1, 2, 3]
        assert g.num_edges == 0

    def test_edges_create_endpoints(self):
        g = Graph(edges=[(5, 9)])
        assert set(g.nodes()) == {5, 9}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(edges=[(1, 1)])

    def test_duplicate_edges_idempotent(self):
        g = Graph(edges=[(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1


class TestMutation:
    def test_add_edge_self_loop_rejected(self):
        # Regression for the docstring's ValueError claim: add_edge defers
        # to ordered_edge, which rejects u == v.
        g = Graph(nodes=[3])
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(3, 3)

    def test_failed_self_loop_leaves_graph_unchanged(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ValueError):
            g.add_edge(7, 7)
        assert g.nodes() == [0, 1]  # no node 7 materialised
        assert g.edges() == [(0, 1)]

    def test_add_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 2)
        triangle.add_edge(1, 0)
        assert triangle.has_edge(0, 1)

    def test_remove_missing_edge(self, triangle):
        with pytest.raises(KeyError):
            triangle.remove_edge(0, 99)



class TestQueries:
    def test_len_and_iter(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]

    def test_neighbours_is_snapshot(self, triangle):
        snap = triangle.neighbours(0)
        triangle.remove_edge(0, 1)
        assert snap == frozenset({1, 2})

    def test_neighbours_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.neighbours(7)

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2

    def test_closed_neighbourhood(self, triangle):
        assert triangle.closed_neighbourhood(0) == {0, 1, 2}

    def test_edges_sorted_canonical(self):
        g = Graph(edges=[(3, 1), (2, 0)])
        assert g.edges() == [(0, 2), (1, 3)]


class TestConversion:
    def test_copy_is_independent(self, triangle):
        c = triangle.copy()
        c.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)

    def test_equality(self, triangle):
        assert triangle == Graph(edges=[(0, 2), (1, 2), (0, 1)])
        assert triangle != Graph(edges=[(0, 1)])

    def test_subgraph(self, triangle):
        sub = triangle.subgraph([0, 1])
        assert sub.nodes() == [0, 1]
        assert sub.edges() == [(0, 1)]

    def test_subgraph_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.subgraph([0, 9])

    def test_adjacency_matrix(self, triangle):
        mat, order = triangle.adjacency_matrix()
        assert order == [0, 1, 2]
        assert mat.sum() == 6  # 3 undirected edges
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()


class TestBulkAddEdges:
    def test_equivalent_to_add_edge_loop(self):
        pairs = [(0, 1), (1, 2), (3, 0), (2, 0)]
        one = Graph()
        for u, v in pairs:
            one.add_edge(u, v)
        bulk = Graph()
        bulk.add_edges(pairs)
        assert one == bulk

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edges([(0, 1), (2, 2)])

    def test_duplicates_idempotent(self):
        g = Graph()
        g.add_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_empty_iterable(self):
        g = Graph(nodes=[5])
        g.add_edges([])
        assert g.num_edges == 0
