"""Tests for connectivity predicates."""

import pytest

from repro.graph.adjacency import Graph
from repro.graph.connectivity import (
    connected_components,
    is_connected,
    is_strongly_connected,
)
from repro.graph.generators import chain_graph


class TestIsConnected:
    def test_empty_and_single(self):
        assert is_connected(Graph())
        assert is_connected(Graph(nodes=[1]))

    def test_chain_connected(self):
        assert is_connected(chain_graph(20))

    def test_two_components(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert not is_connected(g)


class TestConnectedComponents:
    def test_largest_first(self):
        g = Graph(edges=[(0, 1), (1, 2), (5, 6)])
        g.add_node(9)
        comps = connected_components(g)
        assert [len(c) for c in comps] == [3, 2, 1]
        assert comps[0] == {0, 1, 2}
        assert comps[2] == {9}

    def test_empty(self):
        assert connected_components(Graph()) == []


class TestStrongConnectivity:
    def test_cycle_is_strong(self):
        succ = {0: {1}, 1: {2}, 2: {0}}
        assert is_strongly_connected(succ)

    def test_dag_is_not_strong(self):
        succ = {0: {1}, 1: {2}, 2: set()}
        assert not is_strongly_connected(succ)

    def test_reachable_but_not_coreachable(self):
        succ = {0: {1, 2}, 1: {0}, 2: set()}
        assert not is_strongly_connected(succ)

    def test_single_and_empty(self):
        assert is_strongly_connected({0: set()})
        assert is_strongly_connected({})

    def test_missing_node_in_successors(self):
        with pytest.raises(KeyError):
            is_strongly_connected({0: {1}})

