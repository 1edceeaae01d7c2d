"""Tests for random-assessment-delay (RAD) broadcasting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.flooding import blind_flooding
from repro.broadcast.rad import broadcast_rad
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.graph.generators import star_graph

from strategies import connected_graphs, geometric_networks


class TestRad:
    def test_figure5_triangle(self):
        # The paper's Figure 5: u broadcasts; with the assessment delay at
        # least one of v, w hears the other's relay and resigns — never all
        # three transmit... unless both delays expire simultaneously-first;
        # with u covering both, each of v/w sees only the *other* uncovered.
        g = Graph(edges=[(0, 1), (0, 2), (1, 2)])
        r = broadcast_rad(g, 0, rng=0)
        assert r.result.delivered_to_all(g)
        assert r.result.num_forward_nodes <= 2  # saves >= 1 transmission

    def test_star_leaves_all_resign(self):
        g = star_graph(8)
        r = broadcast_rad(g, 0, rng=1)
        assert r.result.forward_nodes == frozenset({0})
        assert len(r.cancelled) == 8

    def test_unknown_source(self):
        with pytest.raises(NodeNotFoundError):
            broadcast_rad(star_graph(2), 99)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            broadcast_rad(star_graph(2), 0, max_delay=-1.0)

    def test_zero_delay_close_to_flooding(self):
        # Without assessment time only same-instant knowledge helps.
        g = star_graph(5)
        r = broadcast_rad(g, 0, max_delay=0.0, rng=2)
        assert r.result.delivered_to_all(g)

    def test_deterministic_given_seed(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
        a = broadcast_rad(g, 0, rng=7)
        b = broadcast_rad(g, 0, rng=7)
        assert a.result.forward_nodes == b.result.forward_nodes

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs(), seed=st.integers(0, 1000))
    def test_full_delivery_always(self, graph, seed):
        r = broadcast_rad(graph, 0, rng=seed)
        assert r.result.delivered_to_all(graph)

    @settings(max_examples=15, deadline=None)
    @given(net=geometric_networks(), seed=st.integers(0, 1000))
    def test_never_more_forwards_than_flooding(self, net, seed):
        rad = broadcast_rad(net.graph, 0, rng=seed)
        flood = blind_flooding(net.graph, 0)
        assert rad.result.num_forward_nodes <= flood.num_forward_nodes

    @settings(max_examples=15, deadline=None)
    @given(net=geometric_networks(min_nodes=20), seed=st.integers(0, 1000))
    def test_saves_in_dense_networks(self, net, seed):
        # With average degree >= 10 some neighbourhood is always covered.
        from repro.graph.properties import degree_stats

        if degree_stats(net.graph).mean < 10:
            return
        rad = broadcast_rad(net.graph, 0, rng=seed)
        assert rad.result.num_forward_nodes < net.num_nodes
