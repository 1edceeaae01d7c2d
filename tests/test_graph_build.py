"""Tests for unit disk graph construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.area import Area
from repro.graph.adjacency import Graph
from repro.graph.build import (
    connected_unit_disk_graph,
    unit_disk_graph,
    unit_disk_pairs,
)
from repro.graph.connectivity import is_connected


class TestBasics:
    def test_two_nodes_in_range(self):
        g = unit_disk_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.5)
        assert g.has_edge(0, 1)

    def test_strict_inequality(self):
        # Paper: neighbours iff distance is *less than* r.
        g = unit_disk_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
        assert not g.has_edge(0, 1)

    def test_empty_and_single(self):
        assert unit_disk_graph(np.zeros((0, 2)), 1.0).num_nodes == 0
        assert unit_disk_graph(np.zeros((1, 2)), 1.0).num_nodes == 1

    def test_custom_ids(self):
        g = unit_disk_graph(
            np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0, ids=[10, 20]
        )
        assert g.has_edge(10, 20)
        assert set(g.nodes()) == {10, 20}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GeometryError):
            unit_disk_graph(np.zeros((2, 2)), 1.0, ids=[1, 1])

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            unit_disk_graph(np.zeros((2, 2)), 1.0, ids=[1])

    @pytest.mark.parametrize("r", [0.0, -1.0, float("inf")])
    def test_bad_radius_rejected(self, r):
        with pytest.raises(GeometryError):
            unit_disk_graph(np.zeros((2, 2)), r)

    def test_unknown_method_rejected(self):
        with pytest.raises(GeometryError):
            unit_disk_graph(np.zeros((2, 2)), 1.0, method="magic")


class TestMethodEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 80),
           radius=st.floats(0.05, 0.6))
    def test_dense_equals_grid(self, seed, n, radius):
        pts = np.random.default_rng(seed).random((n, 2))
        dense = unit_disk_graph(pts, radius, method="dense")
        grid = unit_disk_graph(pts, radius, method="grid")
        assert dense == grid

    def test_auto_picks_something_valid(self):
        pts = np.random.default_rng(0).random((30, 2))
        auto = unit_disk_graph(pts, 0.3, method="auto")
        dense = unit_disk_graph(pts, 0.3, method="dense")
        assert auto == dense


def _add_edges_oracle(pts, radius, ids, method, torus=None):
    """The graph as built pair by pair through ``Graph.add_edges``."""
    us, vs = unit_disk_pairs(pts, radius, method=method, torus=torus)
    graph = Graph(nodes=ids)
    graph.add_edges((ids[i], ids[j]) for i, j in zip(us.tolist(), vs.tolist()))
    return graph


def _orders(graph):
    return [(v, list(graph.neighbours_view(v))) for v in graph]


class TestInsertionOrder:
    """The one-pass builders fill each neighbour set in ``add_edges`` order,
    so set iteration order (and every tie-break over it) is unchanged."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 90),
           radius=st.floats(0.05, 0.6), method=st.sampled_from(["dense", "grid"]),
           shuffle=st.booleans())
    def test_matches_add_edges(self, seed, n, radius, method, shuffle):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        ids = rng.permutation(n).tolist() if shuffle else list(range(n))
        built = unit_disk_graph(pts, radius, ids=ids, method=method)
        assert _orders(built) == _orders(
            _add_edges_oracle(pts, radius, ids, method))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60),
           radius=st.floats(0.05, 0.5), torus=st.booleans())
    def test_connected_variant(self, seed, n, radius, torus):
        pts = np.random.default_rng(seed).random((n, 2))
        area = Area(1.0, 1.0) if torus else None
        got = connected_unit_disk_graph(pts, radius, torus=area)
        full = unit_disk_graph(pts, radius, torus=area)
        if is_connected(full):
            assert got is not None and _orders(got) == _orders(full)
        else:
            assert got is None
