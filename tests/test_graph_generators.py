"""Tests for network/graph generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.graph.connectivity import is_connected
from repro.graph.generators import (
    PAPER_FIGURE3_EDGES,
    chain_graph,
    grid_graph,
    paper_figure3_graph,
    random_geometric_network,
    star_graph,
)
from repro.graph.properties import degree_stats


class TestFigure3:
    def test_node_and_edge_count(self):
        g = paper_figure3_graph()
        assert g.num_nodes == 10
        assert g.num_edges == len(PAPER_FIGURE3_EDGES)

    def test_clusterheads_pairwise_non_adjacent(self):
        g = paper_figure3_graph()
        for u in (1, 2, 3, 4):
            for v in (1, 2, 3, 4):
                if u != v:
                    assert not g.has_edge(u, v)

    def test_connected(self):
        assert is_connected(paper_figure3_graph())

    def test_key_adjacencies_from_message_trace(self):
        g = paper_figure3_graph()
        # CH_HOP1(9) = {3*, 4}: node 9 adjacent to heads 3 and 4 only.
        assert {h for h in (1, 2, 3, 4) if g.has_edge(9, h)} == {3, 4}
        # CH_HOP2(9) = {1[5]}: 9 adjacent to 5, 5 adjacent to head 1.
        assert g.has_edge(9, 5) and g.has_edge(5, 1)
        # CH_HOP1(6) = {1*, 2}.
        assert {h for h in (1, 2, 3, 4) if g.has_edge(6, h)} == {1, 2}


class TestDeterministicGraphs:
    def test_chain(self):
        g = chain_graph(4)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_chain_single(self):
        assert chain_graph(1).num_nodes == 1

    def test_chain_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            chain_graph(0)

    def test_grid(self):
        g = grid_graph(2, 3)
        assert g.num_nodes == 6
        assert g.num_edges == 7  # 3 vertical + 4 horizontal

    def test_star(self):
        g = star_graph(5)
        assert g.degree(0) == 5
        assert all(g.degree(i) == 1 for i in range(1, 6))


class TestRandomGeometricNetwork:
    def test_connected_by_construction(self):
        net = random_geometric_network(40, 6.0, rng=0)
        assert is_connected(net.graph)
        assert net.num_nodes == 40

    def test_radius_matches_calibration(self):
        net = random_geometric_network(50, 8.0, rng=1)
        assert net.radius == pytest.approx(range_for_target_degree(50, 8.0))

    def test_explicit_radius_override(self):
        net = random_geometric_network(20, 6.0, rng=2, radius=40.0)
        assert net.radius == 40.0

    def test_mean_degree_near_target(self):
        degs = [
            degree_stats(random_geometric_network(80, 12.0, rng=s).graph).mean
            for s in range(8)
        ]
        # Border effects + connectivity conditioning shift it somewhat.
        assert np.mean(degs) == pytest.approx(12.0, rel=0.25)

    def test_deterministic_with_seed(self):
        a = random_geometric_network(30, 6.0, rng=77)
        b = random_geometric_network(30, 6.0, rng=77)
        assert a.graph == b.graph

    def test_shuffle_ids_preserves_structure_size(self):
        net = random_geometric_network(30, 8.0, rng=3, shuffle_ids=True)
        assert net.num_nodes == 30
        assert is_connected(net.graph)

    def test_impossible_connectivity_raises(self):
        with pytest.raises(ExperimentError):
            # Tiny radius on a large area cannot connect 30 nodes.
            random_geometric_network(30, 6.0, rng=4, radius=0.5,
                                     max_attempts=5)

    def test_single_node(self):
        net = random_geometric_network(1, 6.0, rng=5)
        assert net.num_nodes == 1
