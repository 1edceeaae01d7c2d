"""Tests for dominating/independent/CDS predicates and degree stats."""

import pytest

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.generators import chain_graph, star_graph
from repro.graph.properties import (
    degree_stats,
    is_connected_dominating_set,
    is_dominating_set,
    is_independent_set,
)


@pytest.fixture
def p5():
    return chain_graph(5)  # 0-1-2-3-4


class TestDominatingSet:
    def test_hub_dominates_star(self):
        assert is_dominating_set(star_graph(6), [0])

    def test_leaf_does_not_dominate_star(self):
        assert not is_dominating_set(star_graph(6), [1])

    def test_chain_alternating(self, p5):
        assert is_dominating_set(p5, [1, 3])
        assert not is_dominating_set(p5, [0, 4])  # node 2 uncovered

    def test_whole_set_dominates(self, p5):
        assert is_dominating_set(p5, p5.nodes())

    def test_unknown_node_rejected(self, p5):
        with pytest.raises(NodeNotFoundError):
            is_dominating_set(p5, [99])


class TestIndependentSet:
    def test_alternating_chain(self, p5):
        assert is_independent_set(p5, [0, 2, 4])

    def test_adjacent_pair_not_independent(self, p5):
        assert not is_independent_set(p5, [0, 1])

    def test_empty_is_independent(self, p5):
        assert is_independent_set(p5, [])


class TestCds:
    def test_chain_interior_is_cds(self, p5):
        assert is_connected_dominating_set(p5, [1, 2, 3])

    def test_disconnected_dominators_not_cds(self, p5):
        assert not is_connected_dominating_set(p5, [1, 3])

    def test_non_dominating_connected_not_cds(self, p5):
        assert not is_connected_dominating_set(p5, [0, 1])

    def test_empty_graph_empty_cds(self):
        assert is_connected_dominating_set(Graph(), [])

    def test_single_node_graph(self):
        g = Graph(nodes=[7])
        assert is_connected_dominating_set(g, [7])
        assert not is_connected_dominating_set(g, [])


class TestDegreeStats:
    def test_star(self):
        stats = degree_stats(star_graph(4))
        assert stats.maximum == 4 == stats.delta
        assert stats.minimum == 1
        assert stats.mean == pytest.approx(8 / 5)

    def test_empty_graph(self):
        stats = degree_stats(Graph())
        assert stats.mean == 0.0 and stats.delta == 0

    def test_regular_graph_zero_std(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        assert degree_stats(g).std == 0.0
