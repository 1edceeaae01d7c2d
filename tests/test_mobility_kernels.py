"""Property tests: the mobility maintenance kernels are bit-identical.

The array-native :class:`~repro.maintenance.kernels.KernelMobilitySession`
must reproduce the from-scratch object rebuild of ``mobility_oracle``
*exactly*, tick for tick — same graphs, same clusterings, same coverage
sets and gateway selections, and churn counters equal to the sizes of the
oracle's churn sets — on arbitrary raw placements (disconnected included),
torus wrap, permuted non-contiguous ids, boundary-crossing mobility and
both coverage policies.  This is the contract that lets the kernel session
be the only mobility session at every n.

``repair_lowest_id_rows`` — the one stage a tick repairs rather than
rebuilds — is pinned separately against the unconstrained fixpoint, so a
clustering failure localises, and against the round-by-round repair of
``repair_oracle`` on all four outputs, ``reevaluated`` included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lowest_id import lowest_id_rows, repair_lowest_id_rows
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.mobility import RandomWalk, RandomWaypoint
from repro.geometry.placement import uniform_placement
from repro.graph.csr import csr_from_positions
from repro.graph.network import Network
from repro.maintenance.kernels import KernelMobilitySession, _sorted_diff
from repro.types import CoveragePolicy

from mobility_oracle import ScratchSession, session_network
from repair_oracle import repair_rounds_from_scratch


@st.composite
def mobility_scenarios(draw):
    """Raw mobility scenarios: placement, radius, model, torus, ids.

    Placements are *not* rejected for connectivity; speeds range up to a
    large fraction of the radius per tick, so deltas span "nothing moved
    cells" to "most edges churned" and nodes bounce off (or wrap around)
    the area boundary.
    """
    n = draw(st.integers(2, 45))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    side = draw(st.sampled_from([40.0, 80.0, 150.0]))
    radius = draw(st.sampled_from([12.0, 25.0, 50.0]))
    area = Area(side, side)
    positions = uniform_placement(n, area, rng=rng)
    torus = draw(st.booleans())
    if draw(st.booleans()):
        ids = [int(v) for v in rng.permutation(10 * n)[:n]]
    else:
        ids = None
    speed = draw(st.sampled_from([0.5, 4.0, 15.0]))
    model_seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["walk", "waypoint"]))
    policy = draw(st.sampled_from(list(CoveragePolicy)))
    return (positions, radius, area, torus, ids, kind, speed, model_seed,
            policy)


def _dirty_heads(old_network, report):
    """``KernelTickReport.dirty_heads`` by its definition, on oracle snapshots.

    The new heads within two hops (in the new graph) of an endpoint of a
    changed edge, a row whose head status flipped or a reassigned row.
    """
    graph = report.network.graph
    changed = ({frozenset(e) for e in old_network.graph.edges()}
               ^ {frozenset(e) for e in graph.edges()})
    churn = report.cluster_churn
    ball = set().union(*changed, churn.heads_gained, churn.heads_lost,
                       churn.reassigned_members)
    for _ in range(2):
        ball |= {w for v in ball for w in graph.neighbours(v)}
    return len(ball & report.structure.clusterheads)


def _model(kind, speed, area, seed):
    if kind == "walk":
        return RandomWalk(speed=speed, area=area, rng=seed)
    return RandomWaypoint(
        speed_range=(0.5 * speed, speed), pause_time=0.25, area=area,
        rng=seed,
    )


class TestSessionEquivalence:
    """Kernel session vs the from-scratch oracle, tick for tick."""

    @given(mobility_scenarios(), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_ticks_bit_identical(self, scenario, ticks):
        (positions, radius, area, torus, ids, kind, speed, mseed,
         policy) = scenario
        net = Network.from_positions(
            positions, radius, ids=ids, area=area, torus=torus
        )
        oracle = ScratchSession(net, _model(kind, speed, area, mseed), policy)
        ker = KernelMobilitySession.from_network(
            net, _model(kind, speed, area, mseed), policy
        )
        assert oracle.structure.head_of == ker.structure().head_of
        assert oracle.backbone.gateways == ker.backbone().gateways
        for _ in range(ticks):
            old_network = oracle.network
            ro = oracle.step(1.0)
            rk = ker.step(1.0)
            network, backbone = session_network(ker), ker.backbone()
            assert ro.network.positions == network.positions
            assert set(ro.network.graph.edges()) == set(
                network.graph.edges()
            )
            assert ro.structure.head_of == backbone.structure.head_of
            assert ro.backbone.gateways == backbone.gateways
            assert set(ro.backbone.selections) == set(backbone.selections)
            for h in ro.backbone.selections:
                assert (ro.backbone.coverage_sets[h].all_targets
                        == backbone.coverage_sets[h].all_targets)
                assert (ro.backbone.selections[h].gateways
                        == backbone.selections[h].gateways)
            assert rk.time == ro.time
            assert rk.connected == ro.connected
            assert rk.link_changes == ro.link_changes
            cc, bc = ro.cluster_churn, ro.backbone_churn
            assert rk.heads_gained == len(cc.heads_gained)
            assert rk.heads_lost == len(cc.heads_lost)
            assert rk.flipped == cc.role_change_count
            assert rk.reassigned == len(cc.reassigned_members)
            assert rk.gateways_gained == len(bc.gateways_gained)
            assert rk.gateways_lost == len(bc.gateways_lost)
            assert rk.resignalling == len(bc.heads_with_new_selection)
            assert rk.dirty_heads == _dirty_heads(old_network, ro)


class TestTickLargeN:
    """Regression: key packing must not wrap in the CSR's int32 indices.

    ``row * n`` exceeds int32 once ``n > ~46k``, so a tick at n=50000
    catches any edge, target or gateway key packed in the indices' dtype
    (which silently wraps and unsorts the tables).  The ticked session
    must equal a session built from scratch on the new positions.
    """

    def test_tick_matches_fresh_session_above_int32_boundary(self):
        n = 50_000
        rng = np.random.default_rng(8)
        side = 100.0 * (n / 100.0) ** 0.5
        area = Area(side, side)
        radius = 14.0
        pts = uniform_placement(n, area, rng=rng)
        model = RandomWaypoint(
            speed_range=(0.5, 1.0), pause_time=0.0, area=area, rng=9
        )
        session = KernelMobilitySession(pts, radius, model, area=area)
        assert session.csr.indices.dtype == np.int32
        before = session.csr.edge_keys()
        old_head = session.head_row
        report = session.step(1.0)
        assert report.link_changes > 0
        # The tick's edge diff and repair seeds, recomputed on int64 keys.
        delta = np.setxor1d(before, session.csr.edge_keys())
        assert 2 * report.link_changes == delta.size
        _, reevaluated, _, _ = repair_lowest_id_rows(
            session.csr, old_head, np.unique(delta // n))
        assert report.reevaluated == reevaluated.size
        fresh = KernelMobilitySession(
            session.positions, radius, model, area=area
        )
        np.testing.assert_array_equal(session.head_row, fresh.head_row)
        np.testing.assert_array_equal(session.gateway_rows,
                                      fresh.gateway_rows)
        cov = session.coverage
        for col in ("heads", "d_head", "d_ch", "d_v",
                    "i_head", "i_ch", "i_v", "i_w"):
            np.testing.assert_array_equal(getattr(cov, col),
                                          getattr(fresh.coverage, col))
        # A wrapped key would unsort the tables in both sessions alike.
        for head, ch in ((cov.d_head, cov.d_ch), (cov.i_head, cov.i_ch)):
            keys = head.astype(np.int64) * n + ch
            assert (np.diff(keys) >= 0).all()


class TestRepairLowestId:
    """Constrained fixpoint repair vs the unconstrained kernel."""

    @given(st.integers(2, 50), st.integers(0, 2**32 - 1),
           st.sampled_from([10.0, 18.0, 35.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_fixpoint(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        area = Area(60.0, 60.0)
        before = uniform_placement(n, area, rng=rng)
        after = area.clamp(before + rng.normal(0.0, 5.0, size=before.shape))
        old_csr = csr_from_positions(before, radius)
        new_csr = csr_from_positions(after, radius)
        old_head = lowest_id_rows(old_csr)

        def canonical(csr):
            keys = csr.edge_keys()
            src, dst = keys // n, keys % n
            return np.sort(src[src < dst] * n + dst[src < dst])

        delta = np.setxor1d(canonical(old_csr), canonical(new_csr))
        seeds = np.unique(np.concatenate([delta // n, delta % n]))
        head, reevaluated, flipped, reassigned = repair_lowest_id_rows(
            new_csr, old_head, seeds
        )
        np.testing.assert_array_equal(head, lowest_id_rows(new_csr))
        rows = np.arange(n)
        old_is_head, is_head = old_head == rows, head == rows
        np.testing.assert_array_equal(
            flipped, np.flatnonzero(old_is_head != is_head)
        )
        changed = np.flatnonzero(head != old_head)
        np.testing.assert_array_equal(
            reassigned, changed[~old_is_head[changed] & ~is_head[changed]]
        )
        assert np.isin(flipped, reevaluated).all()

    @given(st.integers(2, 150), st.integers(0, 2**32 - 1),
           st.sampled_from([6.0, 18.0]),
           st.sampled_from([0.02, 0.2, 1.0, 4.0]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_round_by_round_oracle(self, n, seed, degree, shift,
                                           extra_seeds):
        """Warm-started rounds return exactly what re-solving the whole
        ball every round returns: ``reevaluated`` included, at both paper
        degrees, from near-static to fully reshuffled placements."""
        rng = np.random.default_rng(seed)
        area = Area(100.0, 100.0)
        radius = range_for_target_degree(n, min(degree, n - 1.0), area)
        before = uniform_placement(n, area, rng=rng)
        after = area.clamp(
            before + rng.normal(0.0, shift * radius, size=before.shape))
        old_csr = csr_from_positions(before, radius)
        new_csr = csr_from_positions(after, radius)
        old_head = lowest_id_rows(old_csr)
        delta = np.setxor1d(old_csr.edge_keys(), new_csr.edge_keys())
        seeds = np.unique(delta // n)
        if extra_seeds:
            seeds = np.union1d(seeds, rng.choice(n, size=n // 4 + 1))
        got = repair_lowest_id_rows(new_csr, old_head, seeds)
        want = repair_rounds_from_scratch(new_csr, old_head, seeds)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype


class TestSortedDiff:
    @settings(max_examples=60, deadline=None)
    @given(old=st.sets(st.integers(0, 2 ** 40), max_size=60),
           new=st.sets(st.integers(0, 2 ** 40), max_size=60))
    def test_matches_setdiff(self, old, new):
        a = np.array(sorted(old), dtype=np.int64)
        b = np.array(sorted(new), dtype=np.int64)
        added, removed = _sorted_diff(a, b)
        assert added.tolist() == sorted(new - old)
        assert removed.tolist() == sorted(old - new)
