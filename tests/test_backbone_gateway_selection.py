"""Tests for the greedy gateway-selection heuristic.

Pruned selection, which reads the witnesses of the targets straight off
the full coverage set, must equal selection over the restricted coverage
set.  The absorption sort of the shared selection kernel must order its
pairs lexicographically on both sides of its int64 packing guard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbone.gateway_selection import _sort_pairs, select_gateways
from repro.cluster.lowest_id import lowest_id_clustering
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import compute_coverage_set
from repro.errors import BackboneError
from repro.types import CoveragePolicy

from strategies import arbitrary_graphs, connected_graphs


class TestFigure3Selections:
    """The GATEWAY sets of the paper's Section 3 example."""

    @pytest.mark.parametrize(
        "head,expected",
        [(1, {6, 7}), (2, {6, 8}), (3, {7, 8, 9}), (4, {5, 9})],
    )
    def test_gateway_sets(self, fig3_clustering, head, expected):
        cov = compute_coverage_set(fig3_clustering, head)
        assert set(select_gateways(cov).gateways) == expected

    def test_head4_prefers_indirect_coverer(self, fig3_clustering):
        # "node 4 selects node 9, not node 10 ... because node 9 can also
        # indirectly cover node 1."
        cov = compute_coverage_set(fig3_clustering, 4)
        sel = select_gateways(cov)
        assert 9 in sel.gateways and 10 not in sel.gateways
        assert sel.connectors[3] == (9,)
        assert sel.connectors[1] == (9, 5)

    def test_head3_ties_broken_by_id(self, fig3_clustering):
        # 9 and 10 both cover only head 4; the lower id wins.
        cov = compute_coverage_set(fig3_clustering, 3)
        sel = select_gateways(cov)
        assert sel.connectors[4] == (9,)


class TestTargetsRestriction:
    def test_restricted_selection(self, fig3_clustering):
        cov = compute_coverage_set(fig3_clustering, 3)
        sel = select_gateways(cov, targets={4})
        assert sel.gateways == frozenset({9})
        assert sel.covered_targets() == frozenset({4})

    def test_empty_targets_empty_selection(self, fig3_clustering):
        cov = compute_coverage_set(fig3_clustering, 3)
        sel = select_gateways(cov, targets=set())
        assert sel.gateways == frozenset()
        assert sel.num_gateways == 0

    def test_foreign_targets_ignored(self, fig3_clustering):
        cov = compute_coverage_set(fig3_clustering, 2)
        sel = select_gateways(cov, targets={1, 99})
        assert sel.covered_targets() == frozenset({1})


class TestGreedyBehaviour:
    def test_prefers_high_direct_coverage(self):
        # Neighbour 10 covers both 2-hop heads; 11 and 12 cover one each.
        cov = CoverageSet(
            head=1,
            policy=CoveragePolicy.TWO_FIVE_HOP,
            c2=frozenset({2, 3}),
            c3=frozenset(),
            direct_witnesses={
                2: frozenset({10, 11}),
                3: frozenset({10, 12}),
            },
            indirect_witnesses={},
        )
        sel = select_gateways(cov)
        assert sel.gateways == frozenset({10})

    def test_phase2_reuses_selected_gateways(self):
        # Target 5 (3-hop) can go via (10, 20) or (11, 21); 10 is already a
        # gateway from phase 1, so (10, 20) costs fewer new nodes.
        cov = CoverageSet(
            head=1,
            policy=CoveragePolicy.THREE_HOP,
            c2=frozenset({2}),
            c3=frozenset({5}),
            direct_witnesses={2: frozenset({10})},
            indirect_witnesses={5: frozenset({(11, 21), (10, 20)})},
        )
        sel = select_gateways(cov)
        assert sel.gateways == frozenset({10, 20})

    def test_pure_c3_coverage(self):
        cov = CoverageSet(
            head=1,
            policy=CoveragePolicy.THREE_HOP,
            c2=frozenset(),
            c3=frozenset({5}),
            direct_witnesses={},
            indirect_witnesses={5: frozenset({(11, 21), (10, 20)})},
        )
        sel = select_gateways(cov)
        # Lexicographically smallest pair when no reuse is possible.
        assert sel.connectors[5] == (10, 20)

    def test_indirect_absorption_picks_min_partner(self):
        cov = CoverageSet(
            head=1,
            policy=CoveragePolicy.TWO_FIVE_HOP,
            c2=frozenset({2}),
            c3=frozenset({5}),
            direct_witnesses={2: frozenset({10})},
            indirect_witnesses={5: frozenset({(10, 22), (10, 21)})},
        )
        sel = select_gateways(cov)
        assert sel.connectors[5] == (10, 21)
        assert sel.gateways == frozenset({10, 21})


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs())
    def test_every_target_connected(self, graph):
        cs = lowest_id_clustering(graph)
        for head in cs.sorted_heads():
            for policy in CoveragePolicy:
                cov = compute_coverage_set(cs, head, policy)
                sel = select_gateways(cov)
                assert sel.covered_targets() == cov.all_targets
                for ch, path in sel.connectors.items():
                    hops = [head, *path, ch]
                    for a, b in zip(hops, hops[1:]):
                        assert graph.has_edge(a, b), (head, ch, path)
                    assert set(path) <= set(sel.gateways)

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs())
    def test_gateways_are_non_heads(self, graph):
        cs = lowest_id_clustering(graph)
        for head in cs.sorted_heads():
            cov = compute_coverage_set(cs, head, CoveragePolicy.THREE_HOP)
            sel = select_gateways(cov)
            assert not (sel.gateways & cs.clusterheads)

    @settings(max_examples=60, deadline=None)
    @given(graph=arbitrary_graphs(), data=st.data())
    def test_targets_equal_restricted_coverage(self, graph, data):
        # Pruned selection reads the witnesses of ``c2 & targets`` and
        # ``c3 & targets`` straight off the full set: it must agree with
        # selecting over the restricted coverage set.  Drawn targets mix
        # real ones with foreign ids (the head, non-heads, absent ids) and
        # may be empty.
        cs = lowest_id_clustering(graph)
        absent = max(graph.nodes()) + 1
        for head in cs.sorted_heads():
            for policy in CoveragePolicy:
                cov = compute_coverage_set(cs, head, policy)
                pool = sorted(cov.all_targets | set(graph.nodes())) + [absent]
                targets = data.draw(st.lists(st.sampled_from(pool),
                                             unique=True))
                assert select_gateways(cov, targets) == select_gateways(
                    cov.restricted(frozenset(targets)))


class TestAbsorptionSort:
    """``_sort_pairs``: the absorption table's ``(key, w)`` sort, packed
    into one int64 below ``key_span * n < 2**62`` and a lexsort above."""

    @staticmethod
    def _expected(key, w):
        return sorted(zip(key.tolist(), w.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2**20), st.integers(1, 2**20),
           st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_both_branches_sort_lexicographically(self, key_span, n, m, seed):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, key_span, size=m, dtype=np.int64)
        w = rng.integers(0, n, size=m, dtype=np.int64)
        want = self._expected(key, w)
        # key_span * n < 2**40 here: the packed branch.  Claiming a span
        # of 2**62 for the same pairs takes the lexsort branch.
        for span in (key_span, 2**62):
            got_key, got_w = _sort_pairs(key, w, span, n)
            assert list(zip(got_key.tolist(), got_w.tolist())) == want
            assert got_key.dtype == got_w.dtype == np.int64

    @pytest.mark.parametrize("key_span, n", [
        (2**31, 2**31 - 1),       # just below the guard: packed
        (2**31, 2**31),           # exactly 2**62: lexsort
        (2**40, 2**31 - 1),       # a packed key would wrap int64
    ])
    def test_extreme_values_either_side_of_the_guard(self, key_span, n):
        rng = np.random.default_rng(7)
        key = np.concatenate([
            rng.integers(0, key_span, size=200, dtype=np.int64),
            np.array([key_span - 1, key_span - 1, 0, 0], dtype=np.int64),
        ])
        w = np.concatenate([
            rng.integers(0, n, size=200, dtype=np.int64),
            np.array([n - 1, 0, n - 1, 0], dtype=np.int64),
        ])
        got_key, got_w = _sort_pairs(key, w, key_span, n)
        assert list(zip(got_key.tolist(), got_w.tolist())) == self._expected(
            key, w)
