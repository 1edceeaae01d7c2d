"""Tests for the analysis package (latency, redundancy)."""

import pytest
from hypothesis import given, settings

from repro.analysis.latency import latency_stretch, latency_study
from repro.analysis.redundancy import redundancy_report
from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast.flooding import blind_flooding
from repro.broadcast.sd_cds import broadcast_sd
from repro.broadcast.si_cds import broadcast_si
from repro.cluster.lowest_id import lowest_id_clustering
from repro.errors import BroadcastError, ConfigurationError
from repro.graph.adjacency import Graph
from repro.graph.generators import (
    random_geometric_network,
    star_graph,
)

from strategies import connected_graphs


class TestLatencyStretch:
    def test_flooding_is_optimal(self, fig3_graph):
        r = blind_flooding(fig3_graph, 1)
        assert latency_stretch(fig3_graph, r) == 1.0

    def test_backbone_stretch_at_least_one(self, fig3_graph, fig3_clustering):
        bb = build_static_backbone(fig3_clustering)
        r = broadcast_si(fig3_graph, bb, 1)
        assert latency_stretch(fig3_graph, r) >= 1.0

    def test_partial_delivery_rejected(self):
        g = Graph(edges=[(0, 1), (5, 6)])
        r = blind_flooding(g, 0)
        with pytest.raises(BroadcastError):
            latency_stretch(g, r)

    def test_single_node(self):
        g = Graph(nodes=[0])
        assert latency_stretch(g, blind_flooding(g, 0)) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs())
    def test_sd_stretch_bounded(self, graph):
        cs = lowest_id_clustering(graph)
        dyn = broadcast_sd(cs, source=0)
        stretch = latency_stretch(graph, dyn.result)
        # Every head forwards immediately on first receipt; each BFS hop
        # costs at most one 3-hop cluster traversal, plus constant start-up
        # hops (member->head), so the stretch stays a small constant.
        assert 1.0 <= stretch <= 5.0

    def test_latency_study(self, fig3_graph, fig3_clustering):
        bb = build_static_backbone(fig3_clustering)
        study = latency_study(
            fig3_graph,
            {
                "flooding": blind_flooding,
                "static": lambda g, s: broadcast_si(g, bb, s),
            },
            source=1,
        )
        assert study["flooding"][1] == 1.0
        assert study["static"][0] >= study["flooding"][0]


class TestRedundancy:
    def test_star_from_hub(self):
        g = star_graph(5)
        rep = redundancy_report(g, blind_flooding(g, 0))
        # Hub's transmission reaches 5 leaves; each leaf's reaches the hub.
        assert rep.total_receptions == 10
        assert rep.max_copies == 5  # the hub hears every leaf
        assert rep.silent_hosts == 0
        assert rep.forward_fraction == 1.0

    def test_backbone_reduces_mean_copies(self):
        net = random_geometric_network(60, 18.0, rng=4)
        cs = lowest_id_clustering(net.graph)
        flood = redundancy_report(net.graph, blind_flooding(net.graph, 0))
        dyn = redundancy_report(
            net.graph, broadcast_sd(cs, source=0).result
        )
        assert dyn.mean_copies < flood.mean_copies
        assert dyn.forward_fraction < 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            redundancy_report(Graph(), blind_flooding(Graph(nodes=[0]), 0))

    def test_mean_copies_matches_handshake_sum(self, fig3_graph):
        r = blind_flooding(fig3_graph, 1)
        rep = redundancy_report(fig3_graph, r)
        assert rep.total_receptions == 2 * fig3_graph.num_edges

