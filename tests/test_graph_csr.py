"""Unit tests for the immutable CSR adjacency and its segment primitives."""

import numpy as np
import pytest

from repro.errors import GeometryError, NodeNotFoundError
from repro.geometry.area import Area
from repro.geometry.grid import SpatialGrid
from repro.geometry.placement import uniform_placement
from repro.graph.adjacency import Graph
from repro.graph.build import unit_disk_graph
from repro.graph.connectivity import connected_components
from repro.graph.csr import (
    _PACK3_MAX,
    _PACK4_MAX,
    CSRGraph,
    csr_from_positions,
    grouped_cartesian,
    row_reduce_min,
    searchsorted_membership,
    sort_quads,
    sort_triples,
)


def _path_graph(n):
    g = Graph(nodes=range(n))
    g.add_edges((i, i + 1) for i in range(n - 1))
    return g


class TestRoundTrip:
    def test_graph_to_csr_and_back(self):
        g = _path_graph(5)
        g.add_edge(0, 4)
        csr = CSRGraph.from_graph(g)
        assert csr.to_graph() == g
        assert csr.num_nodes == 5 and csr.num_edges == 5

    def test_graph_bridge_methods(self):
        g = _path_graph(4)
        csr = g.to_csr()
        assert csr.to_graph() == g

    def test_permuted_ids_relabel_rows(self):
        g = Graph(nodes=[30, 10, 20])
        g.add_edge(30, 10)
        csr = CSRGraph.from_graph(g)
        assert csr.ids.tolist() == [10, 20, 30]
        assert csr.to_graph() == g

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_nodes == 0 and csr.num_edges == 0
        assert csr.to_graph() == Graph()


class TestQueries:
    def test_row_of_and_neighbour_ids(self):
        g = Graph(nodes=[5, 7, 9])
        g.add_edge(5, 9)
        csr = CSRGraph.from_graph(g)
        assert csr.row_of(7) == 1
        assert csr.ids[csr.row(csr.row_of(5))].tolist() == [9]
        assert csr.ids[csr.row(csr.row_of(7))].tolist() == []

    def test_row_of_unknown_id_raises(self):
        csr = CSRGraph.from_graph(_path_graph(3))
        with pytest.raises(NodeNotFoundError):
            csr.row_of(99)
        g = Graph(nodes=[2, 4])
        with pytest.raises(NodeNotFoundError):
            CSRGraph.from_graph(g).row_of(3)

    def test_has_edge(self):
        csr = CSRGraph.from_graph(_path_graph(3))
        assert csr.has_edge(0, 1) and csr.has_edge(1, 0)
        assert not csr.has_edge(0, 2)
        assert not csr.has_edge(0, 99)

    def test_edge_keys_sorted_directed(self):
        csr = CSRGraph.from_graph(_path_graph(3))
        keys = csr.edge_keys()
        assert keys.tolist() == sorted(keys.tolist())
        assert keys.shape[0] == 2 * csr.num_edges

    def test_ids_must_ascend(self):
        with pytest.raises(GeometryError):
            CSRGraph(np.array([0, 0, 0]), np.empty(0), ids=np.array([2, 1]))


class TestDerivedStructure:
    def test_subgraph_rows_drops_crossing_edges(self):
        g = _path_graph(5)
        csr = CSRGraph.from_graph(g)
        sub = csr.subgraph_rows(np.array([0, 1, 3, 4]))
        assert sub.ids.tolist() == [0, 1, 3, 4]
        want = Graph(nodes=[0, 1, 3, 4])
        want.add_edges([(0, 1), (3, 4)])
        assert sub.to_graph() == want

    def test_giant_component_matches_set_implementation(self):
        g = Graph(nodes=range(7))
        g.add_edges([(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])
        csr = CSRGraph.from_graph(g)
        rows = csr.giant_component_rows()
        want = max(connected_components(g), key=len)
        assert set(csr.ids[rows].tolist()) == set(want)

    def test_component_labels_partition(self):
        g = Graph(nodes=range(6))
        g.add_edges([(0, 1), (1, 2), (4, 5)])
        labels = CSRGraph.from_graph(g).connected_component_labels()
        assert labels[0] == labels[1] == labels[2]
        assert labels[4] == labels[5]
        assert len({labels[0], labels[3], labels[4]}) == 3


class TestFromPositions:
    def test_matches_dict_builder(self):
        rng = np.random.default_rng(3)
        pts = uniform_placement(150, Area(200.0, 200.0), rng=rng)
        csr = csr_from_positions(pts, 30.0)
        assert csr == CSRGraph.from_graph(unit_disk_graph(pts, 30.0))

    def test_torus_matches_dict_builder(self):
        rng = np.random.default_rng(4)
        area = Area(100.0, 100.0)
        pts = uniform_placement(60, area, rng=rng)
        csr = csr_from_positions(pts, 25.0, torus=area)
        assert csr == CSRGraph.from_graph(
            unit_disk_graph(pts, 25.0, torus=area)
        )

    def test_pair_arrays_matches_pairs_within(self):
        rng = np.random.default_rng(5)
        pts = uniform_placement(200, Area(150.0, 150.0), rng=rng)
        grid = SpatialGrid(pts, cell_size=20.0)
        us, vs = grid.pair_arrays(20.0)
        got = {(min(u, v), max(u, v)) for u, v in zip(us.tolist(), vs.tolist())}
        want = {(min(u, v), max(u, v)) for u, v in grid.pairs_within(20.0)}
        assert got == want


class TestSegmentPrimitives:
    def test_row_reduce_min_with_empty_groups(self):
        vals = np.array([4, 2, 9, 1])
        offsets = np.array([0, 2, 2, 4])
        assert row_reduce_min(vals, offsets, empty=99).tolist() == [2, 99, 1]

    def test_grouped_cartesian(self):
        grp, a, b = grouped_cartesian(np.array([2, 0, 1]), np.array([1, 3, 2]))
        triples = list(zip(grp.tolist(), a.tolist(), b.tolist()))
        assert triples == [(0, 0, 0), (0, 1, 0), (2, 0, 0), (2, 0, 1)]

    def test_searchsorted_membership(self):
        hay = np.array([2, 5, 9])
        needles = np.array([1, 2, 9, 10])
        assert searchsorted_membership(hay, needles).tolist() == [
            False, True, True, False,
        ]
        assert searchsorted_membership(np.empty(0), needles).tolist() == [
            False] * 4


class TestPackedKeySorts:
    """The packed-int64 fast paths must refuse to overflow, not corrupt."""

    def test_pack_limits_are_exact(self):
        # The limits are the largest n whose key range fits an int64 —
        # one more node and the top key wraps.
        assert _PACK4_MAX**4 <= 2**63 - 1 < (_PACK4_MAX + 1) ** 4
        assert _PACK3_MAX**3 <= 2**63 - 1 < (_PACK3_MAX + 1) ** 3

    @staticmethod
    def _random_columns(rng, n, size, columns):
        return [
            rng.integers(
                0, [7, n - 3, n - 1][min(k, 2)], size=size, dtype=np.int64
            )
            for k in range(columns)
        ]

    @pytest.mark.parametrize("n", [
        10, _PACK4_MAX, _PACK4_MAX + 1, _PACK3_MAX, _PACK3_MAX + 1,
        2**31 - 1,
    ])
    def test_sort_quads_identical_across_tiers(self, n):
        rng = np.random.default_rng(n % 2**32)
        head, ch, v, w = self._random_columns(rng, n, 400, 4)
        got = sort_quads(n, head, ch, v, w)
        order = np.lexsort((w, v, ch, head))
        want = (head[order], ch[order], v[order], w[order])
        for g, e in zip(got, want):
            assert np.array_equal(g, e)

    @pytest.mark.parametrize("n", [
        10, _PACK3_MAX, _PACK3_MAX + 1, 2**31 - 1,
    ])
    def test_sort_triples_identical_across_tiers(self, n):
        rng = np.random.default_rng(n % 2**32)
        a, b, c = self._random_columns(rng, n, 400, 3)
        got = sort_triples(n, a, b, c)
        order = np.lexsort((c, b, a))
        want = (a[order], b[order], c[order])
        for g, e in zip(got, want):
            assert np.array_equal(g, e)

    def test_overflow_tier_boundary_would_wrap(self):
        # Sanity: past the limit the packed key really does wrap — the
        # guard is load-bearing.  (_PACK3_MAX + 1 == 2**21 is the one
        # conservative case: its top key is exactly 2**63 - 1.)
        n = _PACK3_MAX + 2
        cols = np.array([n - 1], dtype=np.int64)
        with np.errstate(over="ignore"):
            top = (cols * n + cols) * n + cols
        assert top[0] < 0  # wrapped negative under int64

    def test_empty_input(self):
        e = np.empty(0, dtype=np.int64)
        for arr in sort_quads(2**31 - 1, e, e, e, e):
            assert arr.shape == (0,)
        for arr in sort_triples(2**31 - 1, e, e, e):
            assert arr.shape == (0,)
