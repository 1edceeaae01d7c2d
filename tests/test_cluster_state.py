"""Tests for the ClusterStructure data types."""

import pytest
from hypothesis import given, settings

from repro.cluster.highest_degree import highest_degree_clustering
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import Cluster, ClusterStructure
from repro.errors import ClusteringError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.types import NodeRole
from strategies import geometric_networks


@pytest.fixture
def simple_structure():
    g = Graph(edges=[(1, 5), (1, 6), (2, 6)])
    return ClusterStructure(graph=g, head_of={1: 1, 2: 2, 5: 1, 6: 1})


class TestValidation:
    def test_missing_node_rejected(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(ClusteringError):
            ClusterStructure(graph=g, head_of={1: 1})

    def test_unknown_head_rejected(self):
        g = Graph(edges=[(1, 2)])
        with pytest.raises(ClusteringError):
            ClusterStructure(graph=g, head_of={1: 9, 2: 9})

    def test_non_adjacent_member_rejected(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        with pytest.raises(ClusteringError):
            ClusterStructure(graph=g, head_of={1: 1, 2: 1, 3: 1})

    def test_head_of_head_must_be_self(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        # 2's head is 1, but 3 claims 2 as head -> 2 is both member and head.
        with pytest.raises(ClusteringError):
            ClusterStructure(graph=g, head_of={1: 1, 2: 1, 3: 2})


class TestQueries:
    def test_clusterheads(self, simple_structure):
        assert simple_structure.clusterheads == frozenset({1, 2})

    def test_members(self, simple_structure):
        assert simple_structure.members(1) == frozenset({5, 6})
        assert simple_structure.members(2) == frozenset()

    def test_members_of_non_head_rejected(self, simple_structure):
        with pytest.raises(ClusteringError):
            simple_structure.members(5)

    def test_role(self, simple_structure):
        assert simple_structure.role(1) is NodeRole.CLUSTERHEAD
        assert simple_structure.role(5) is NodeRole.MEMBER

    def test_role_unknown_node(self, simple_structure):
        with pytest.raises(NodeNotFoundError):
            simple_structure.role(42)

    def test_neighbouring_clusterheads(self, simple_structure):
        assert simple_structure.neighbouring_clusterheads(6) == frozenset({1, 2})
        assert simple_structure.neighbouring_clusterheads(5) == frozenset({1})

    def test_num_clusters_and_sorted_heads(self, simple_structure):
        assert simple_structure.num_clusters == 2
        assert simple_structure.sorted_heads() == [1, 2]

    def test_cluster_size(self):
        c = Cluster(head=1, members=frozenset({2, 3}))
        assert c.size == 3


class TestHeadMembership:
    """The coverage and SD loops test ``v in structure.clusterheads`` in
    place of ``structure.is_clusterhead(v)``; the two must agree."""

    @settings(max_examples=30, deadline=None)
    @given(net=geometric_networks())
    def test_membership_matches_is_clusterhead(self, net):
        graph = net.graph
        absent = (max(graph.nodes()) + 1, -1)
        for clustering in (lowest_id_clustering, highest_degree_clustering):
            structure = clustering(graph)
            heads = structure.clusterheads
            for v in list(graph.nodes()) + list(absent):
                assert structure.is_clusterhead(v) == (v in heads)
