"""Tests for the Pagani–Rossi style cluster-based forwarding tree."""

import pytest
from hypothesis import given, settings

from repro.broadcast.forwarding_tree import (
    broadcast_forwarding_tree,
    build_forwarding_tree,
)
from repro.cluster.lowest_id import lowest_id_clustering
from repro.errors import NodeNotFoundError
from repro.graph.properties import is_connected_dominating_set
from repro.types import CoveragePolicy

from strategies import connected_graphs


class TestTreeStructure:
    def test_root_is_sources_head(self, fig3_clustering):
        tree = build_forwarding_tree(fig3_clustering, source=10)
        assert tree.root == 3  # head of node 10

    def test_spans_all_clusters(self, fig3_clustering):
        tree = build_forwarding_tree(fig3_clustering, source=1)
        assert tree.num_clusters == fig3_clustering.num_clusters
        assert fig3_clustering.clusterheads <= tree.nodes

    def test_parent_paths_are_real(self, fig3_clustering):
        g = fig3_clustering.graph
        tree = build_forwarding_tree(fig3_clustering, source=1)
        for child, (parent, path) in tree.parent.items():
            hops = [parent, *path, child]
            for a, b in zip(hops, hops[1:]):
                assert g.has_edge(a, b)

    def test_depths(self, fig3_clustering):
        # Every head's parent chain reaches the root: finite depths, no
        # cycles, and the root alone has depth 0.
        tree = build_forwarding_tree(fig3_clustering, source=1)
        assert tree.root not in tree.parent
        for h in fig3_clustering.clusterheads - {tree.root}:
            cur, depth = h, 0
            while cur != tree.root:
                cur = tree.parent[cur][0]
                depth += 1
                assert depth <= len(tree.parent)
            assert depth >= 1

    def test_tree_is_source_dependent(self, fig3_clustering):
        t1 = build_forwarding_tree(fig3_clustering, source=1)
        t4 = build_forwarding_tree(fig3_clustering, source=4)
        assert t1.root != t4.root

    def test_unknown_source(self, fig3_clustering):
        with pytest.raises(NodeNotFoundError):
            build_forwarding_tree(fig3_clustering, source=99)


class TestTreeBroadcast:
    def test_full_delivery_figure3(self, fig3_graph, fig3_clustering):
        result, tree = broadcast_forwarding_tree(fig3_clustering, source=1)
        assert result.delivered_to_all(fig3_graph)
        assert result.forward_nodes <= tree.nodes | {1}

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs())
    def test_full_delivery_and_cds(self, graph):
        cs = lowest_id_clustering(graph)
        for policy in CoveragePolicy:
            result, tree = broadcast_forwarding_tree(
                cs, source=0, policy=policy
            )
            assert result.delivered_to_all(graph)
            assert is_connected_dominating_set(graph, tree.nodes)

    @settings(max_examples=20, deadline=None)
    @given(graph=connected_graphs())
    def test_tree_never_larger_than_static_backbone(self, graph):
        from repro.backbone.static_backbone import build_static_backbone

        cs = lowest_id_clustering(graph)
        tree = build_forwarding_tree(cs, source=0)
        static = build_static_backbone(cs)
        # The tree only realises a spanning arborescence of the cluster
        # graph, so it needs at most the static backbone's gateways.
        assert len(tree.nodes) <= static.size
