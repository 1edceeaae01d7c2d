"""Tests for the spatial hash grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.grid import SpatialGrid


def brute_force_pairs(pts: np.ndarray, radius: float) -> set:
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) < radius:
                out.add((i, j))
    return out


class TestConstruction:
    def test_len(self):
        grid = SpatialGrid(np.random.default_rng(0).random((17, 2)), 0.2)
        assert len(grid) == 17

    def test_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            SpatialGrid(np.zeros((5, 3)), 1.0)

    @pytest.mark.parametrize("cell", [0.0, -1.0, float("nan")])
    def test_rejects_bad_cell_size(self, cell):
        with pytest.raises(GeometryError):
            SpatialGrid(np.zeros((2, 2)), cell)

    def test_cell_of_negative_coordinates(self):
        grid = SpatialGrid(np.array([[-0.5, -1.5]]), 1.0)
        assert grid.cell_of(np.array([-0.5, -1.5])) == (-1, -2)


class TestQueries:
    def test_strict_inequality(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        grid = SpatialGrid(pts, 1.0)
        assert list(grid.pairs_within(1.0)) == []

    def test_radius_larger_than_cell_rejected(self):
        grid = SpatialGrid(np.zeros((2, 2)), 1.0)
        with pytest.raises(GeometryError):
            list(grid.pairs_within(1.5))

    def test_pairs_within_unique_and_ordered(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        pairs = list(SpatialGrid(pts, 1.0).pairs_within(1.0))
        assert len(pairs) == len(set(pairs)) == 3
        assert all(i < j for i, j in pairs)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        radius=st.floats(0.05, 0.5),
    )
    def test_pairs_match_brute_force(self, seed, n, radius):
        pts = np.random.default_rng(seed).random((n, 2))
        grid = SpatialGrid(pts, cell_size=radius)
        assert set(grid.pairs_within(radius)) == brute_force_pairs(pts, radius)
