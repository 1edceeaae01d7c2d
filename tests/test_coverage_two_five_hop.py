"""Tests for the 2.5-hop coverage set (CH_HOP1/CH_HOP2 semantics).

Besides the Figure 3 example and the invariants, two routes are pinned to
oracles: the shared 3-hop walk and the single-policy walks must equal the
literal CH_HOP1/CH_HOP2 walk and the BFS-distance 3-hop walk, and the
batched array kernel is checked above its four-column packing limit
(n = 60k, the size class of a metro mobility tick).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster.lowest_id import lowest_id_clustering, lowest_id_rows
from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.policy import compute_all_coverage_pairs
from repro.coverage.three_hop import three_hop_coverage
from repro.coverage.two_five_hop import (
    two_five_hop_arrays,
    two_five_hop_coverage,
)
from repro.errors import CoverageError
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.placement import uniform_placement
from repro.graph.adjacency import Graph
from repro.graph.csr import _PACK4_MAX, csr_from_positions
from repro.graph.traversal import bfs_distances

from coverage_oracle import ch_hop_walk, distance_walk
from strategies import arbitrary_graphs, connected_graphs


class TestFigure3Example:
    """Section 3's coverage sets, reproduced exactly."""

    def test_c1(self, fig3_clustering):
        cov = two_five_hop_coverage(fig3_clustering, 1)
        assert cov.c2 == frozenset({2, 3})
        assert cov.c3 == frozenset()

    def test_c2(self, fig3_clustering):
        cov = two_five_hop_coverage(fig3_clustering, 2)
        assert cov.c2 == frozenset({1, 3})
        assert cov.c3 == frozenset()

    def test_c3_uses_corrected_value(self, fig3_clustering):
        # The Section 3 text has a typo ("{1,2,3}"); the broadcast
        # illustration uses C(3) = {1, 2, 4}, which the topology implies.
        cov = two_five_hop_coverage(fig3_clustering, 3)
        assert cov.c2 == frozenset({1, 2, 4})
        assert cov.c3 == frozenset()

    def test_c4_split(self, fig3_clustering):
        # C(4) = C2(4) ∪ C3(4) = {3} ∪ {1}.
        cov = two_five_hop_coverage(fig3_clustering, 4)
        assert cov.c2 == frozenset({3})
        assert cov.c3 == frozenset({1})

    def test_c4_witnesses(self, fig3_clustering):
        cov = two_five_hop_coverage(fig3_clustering, 4)
        assert cov.direct_witnesses[3] == frozenset({9, 10})
        # 1[5] heard via 9: the pair (9, 5).
        assert cov.indirect_witnesses[1] == frozenset({(9, 5)})

    def test_ch_hop1_filtering(self, fig3_clustering):
        # "node 4 is not added to node 5's 2-hop neighbor clusterhead set":
        # head 1's coverage set must not contain 4 even though 4 is three
        # hops away via 5-9, because 9's head is 3, not 4.
        cov = two_five_hop_coverage(fig3_clustering, 1)
        assert 4 not in cov.all_targets


class TestGuards:
    def test_non_head_rejected(self, fig3_clustering):
        with pytest.raises(CoverageError):
            two_five_hop_coverage(fig3_clustering, 5)

    def test_isolated_head_empty_coverage(self):
        cs = lowest_id_clustering(Graph(nodes=[1]))
        cov = two_five_hop_coverage(cs, 1)
        assert cov.size == 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(graph=connected_graphs())
    def test_c2_is_exactly_distance_two_heads(self, graph):
        cs = lowest_id_clustering(graph)
        for head in cs.sorted_heads():
            cov = two_five_hop_coverage(cs, head)
            dist = bfs_distances(graph, head, max_depth=2)
            expected = {
                h for h in cs.clusterheads if dist.get(h) == 2
            }
            assert cov.c2 == expected

    @settings(max_examples=50, deadline=None)
    @given(graph=connected_graphs())
    def test_c3_members_have_member_in_n2(self, graph):
        # Defining property of the 2.5-hop set: each C3 head has a cluster
        # member within two hops of the owner.
        cs = lowest_id_clustering(graph)
        for head in cs.sorted_heads():
            cov = two_five_hop_coverage(cs, head)
            dist = bfs_distances(graph, head, max_depth=3)
            for ch in cov.c3:
                assert dist.get(ch) == 3
                members_in_n2 = [
                    m for m in cs.members(ch) if dist.get(m, 99) <= 2
                ]
                assert members_in_n2, (head, ch)

    @settings(max_examples=50, deadline=None)
    @given(graph=connected_graphs())
    def test_witness_paths_are_real(self, graph):
        cs = lowest_id_clustering(graph)
        for head in cs.sorted_heads():
            cov = two_five_hop_coverage(cs, head)
            for ch, vs in cov.direct_witnesses.items():
                for v in vs:
                    assert graph.has_edge(head, v) and graph.has_edge(v, ch)
            for ch, pairs in cov.indirect_witnesses.items():
                for v, w in pairs:
                    assert graph.has_edge(head, v)
                    assert graph.has_edge(v, w)
                    assert cs.head_of[w] == ch


def _assert_pair_matches_oracles(cs):
    two_five, three = compute_all_coverage_pairs(cs)
    assert list(two_five) == list(three) == cs.sorted_heads()
    for head in cs.sorted_heads():
        # CoverageSet equality covers C2, C3 and every witness map.
        assert two_five[head] == ch_hop_walk(cs, head)
        assert three[head] == distance_walk(cs, head)
        assert two_five_hop_coverage(cs, head) == two_five[head]
        assert three_hop_coverage(cs, head) == three[head]


class TestOneWalkBothPolicies:
    """The shared 3-hop walk and the single-policy walks reproduce the
    literal CH_HOP1/CH_HOP2 walk and the BFS-distance 3-hop walk."""

    def test_figure3(self, fig3_clustering):
        _assert_pair_matches_oracles(fig3_clustering)

    @settings(max_examples=150, deadline=None)
    @given(graph=arbitrary_graphs())
    def test_pair_matches_oracle_walks(self, graph):
        _assert_pair_matches_oracles(lowest_id_clustering(graph))


class TestArraysAboveQuadPackingTier:
    """The batched kernel at n > ``_PACK4_MAX``, where four row columns no
    longer pack into one int64 key (metro ticks run at n = 100k).

    Its quads must still come out strictly ascending in
    ``(head, ch, v, w)``, and sampled heads must equal the literal
    CH_HOP1/CH_HOP2 walk.
    """

    def test_quads_sorted_and_sampled_heads_match_walk(self):
        n = 60_000
        assert n > _PACK4_MAX
        side = 100.0 * (n / 100.0) ** 0.5
        area = Area(side, side)
        rng = np.random.default_rng(3)
        pts = uniform_placement(n, area, rng=rng)
        csr = csr_from_positions(pts, range_for_target_degree(n, 12.0, area))
        head_row = lowest_id_rows(csr)
        cov = two_five_hop_arrays(csr, head_row)
        assert cov.i_head.size > 0

        pair = cov.i_head * n + cov.i_ch
        step = np.diff(pair)
        tail = np.diff(cov.i_v * n + cov.i_w)
        assert (step >= 0).all()
        assert (tail[step == 0] > 0).all()

        ids = csr.ids
        structure = ClusterStructure(
            graph=csr.to_graph(),
            head_of=dict(zip(ids.tolist(), ids[head_row].tolist())),
        )
        sample = np.sort(rng.choice(cov.heads, size=40, replace=False))
        d_rows = np.isin(cov.d_head, sample)
        i_rows = np.isin(cov.i_head, sample)
        got = CoverageArrays(
            csr=csr, policy=cov.policy, heads=sample,
            d_head=cov.d_head[d_rows], d_ch=cov.d_ch[d_rows],
            d_v=cov.d_v[d_rows], i_head=cov.i_head[i_rows],
            i_ch=cov.i_ch[i_rows], i_v=cov.i_v[i_rows], i_w=cov.i_w[i_rows],
        ).materialise_all()
        assert any(s.c3 for s in got.values())
        for head, cs in got.items():
            assert cs == ch_hop_walk(structure, head)
