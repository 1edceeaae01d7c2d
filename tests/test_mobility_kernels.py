"""Property tests: the mobility maintenance kernels are bit-identical.

The array-native :class:`~repro.maintenance.kernels.KernelMobilitySession`
must reproduce the object-layer :class:`~repro.maintenance.session.
MobilitySession` *exactly*, tick for tick — same graphs, same clusterings,
same coverage sets and gateway selections, same churn counters — on
arbitrary raw placements (disconnected included), torus wrap, permuted
non-contiguous ids and boundary-crossing mobility.  This is the contract
that lets :class:`MobilitySession` dispatch to the kernel purely on size.

The building blocks are pinned down separately so a failure localises:
``apply_edge_delta`` against a from-scratch rebuild, ``IncrementalGrid``
deltas against a full pair-sweep diff, and ``repair_lowest_id_rows``
against the unconstrained fixpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lowest_id import lowest_id_rows, repair_lowest_id_rows
from repro.errors import ConfigurationError, GeometryError
from repro.geometry.area import Area
from repro.geometry.grid import IncrementalGrid, SpatialGrid
from repro.geometry.mobility import RandomWalk, RandomWaypoint
from repro.geometry.placement import uniform_placement
from repro.graph.csr import apply_edge_delta, csr_from_positions
from repro.graph.network import Network
from repro.maintenance.kernels import KernelMobilitySession
from repro.maintenance.session import MobilitySession
from repro.types import CoveragePolicy


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
    return positions, radius, area, torus, ids, kind, speed, model_seed


def _model(kind, speed, area, seed):
    if kind == "walk":
        return RandomWalk(speed=speed, area=area, rng=seed)
    return RandomWaypoint(
        speed_range=(0.5 * speed, speed), pause_time=0.25, area=area,
        rng=seed,
    )


class TestSessionEquivalence:
    """Kernel session vs object session, tick for tick."""

    @given(mobility_scenarios(), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_ticks_bit_identical(self, scenario, ticks):
        positions, radius, area, torus, ids, kind, speed, mseed = scenario
        net = Network.from_positions(
            positions, radius, ids=ids, area=area, torus=torus
        )
        obj = MobilitySession(
            net, _model(kind, speed, area, mseed), kernel=False
        )
        ker = MobilitySession(
            net, _model(kind, speed, area, mseed), kernel=True
        )
        assert ker.kernel
        assert obj.structure.head_of == ker.structure.head_of
        assert obj.backbone.gateways == ker.backbone.gateways
        for _ in range(ticks):
            ro = obj.step(1.0)
            rk = ker.step(1.0)
            assert ro.network.positions == rk.network.positions
            assert set(ro.network.graph.edges()) == set(
                rk.network.graph.edges()
            )
            assert ro.structure.head_of == rk.structure.head_of
            assert ro.backbone.gateways == rk.backbone.gateways
            for h in ro.backbone.selections:
                assert (ro.backbone.coverage_sets[h].all_targets
                        == rk.backbone.coverage_sets[h].all_targets)
                assert (ro.backbone.selections[h].gateways
                        == rk.backbone.selections[h].gateways)
            assert ro.connected == rk.connected
            assert ro.link_changes == rk.link_changes
            assert ro.cluster_churn == rk.cluster_churn
            assert ro.backbone_churn == rk.backbone_churn

    def test_kernel_session_requires_two_five_hop(self):
        pts = uniform_placement(10, rng=0)
        with pytest.raises(ConfigurationError):
            KernelMobilitySession(
                pts, 20.0, RandomWalk(speed=1.0, rng=0),
                policy=CoveragePolicy.THREE_HOP,
            )


class TestMaskedCoverageLargeN:
    """Regression: key packing must not wrap in the CSR's int32 indices.

    ``row * n`` exceeds int32 once ``n > ~46k``, so a masked-coverage
    sweep at n=50000 catches any packing done in the indices' dtype
    (which silently wrapped — and unsorted the witness tables — before
    the gathered neighbours were promoted to int64).
    """

    def test_masked_matches_full_above_int32_boundary(self):
        from repro.coverage.two_five_hop import (
            two_five_hop_arrays,
            two_five_hop_arrays_masked,
        )

        n = 50_000
        rng = np.random.default_rng(8)
        side = 100.0 * (n / 100.0) ** 0.5
        area = Area(side, side)
        pts = uniform_placement(n, area, rng=rng)
        csr = csr_from_positions(pts, 14.0)
        assert csr.indices.dtype == np.int32
        head = lowest_id_rows(csr)
        heads = np.flatnonzero(head == np.arange(n))
        full = two_five_hop_arrays(csr, head)
        masked = two_five_hop_arrays_masked(csr, head, heads)
        for got, want in zip(masked, (full.d_head, full.d_ch, full.d_v,
                                      full.i_head, full.i_ch, full.i_v,
                                      full.i_w)):
            np.testing.assert_array_equal(got, want)


class TestApplyEdgeDelta:
    """CSR delta application vs a from-scratch rebuild."""

    @given(st.integers(2, 50), st.integers(0, 2**32 - 1),
           st.sampled_from([10.0, 20.0, 40.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_rebuild(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        area = Area(70.0, 70.0)
        before = uniform_placement(n, area, rng=rng)
        after = area.clamp(before + rng.normal(0.0, 6.0, size=before.shape))
        old = csr_from_positions(before, radius)
        new = csr_from_positions(after, radius)

        def canonical(csr):
            keys = csr.edge_keys()
            src, dst = keys // n, keys % n
            return np.sort(src[src < dst] * n + dst[src < dst])

        old_keys, new_keys = canonical(old), canonical(new)
        added = np.setdiff1d(new_keys, old_keys)
        removed = np.setdiff1d(old_keys, new_keys)
        patched = apply_edge_delta(old, added, removed)
        np.testing.assert_array_equal(patched.indptr, new.indptr)
        np.testing.assert_array_equal(patched.indices, new.indices)

    def test_rejects_removing_missing_edge(self):
        # A 3-node line: (0,1) and (1,2) are edges, (0,2) is not.
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        csr = csr_from_positions(line, 1.5)
        with pytest.raises(GeometryError):
            apply_edge_delta(
                csr, np.empty(0, dtype=np.int64),
                np.array([0 * 3 + 2], dtype=np.int64),
            )

    def test_rejects_adding_present_edge(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        csr = csr_from_positions(line, 1.5)
        with pytest.raises(GeometryError):
            apply_edge_delta(
                csr, np.array([0 * 3 + 1], dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )


class TestIncrementalGridDelta:
    """Incremental delta sweep vs full pair-sweep diff across ticks."""

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1),
           st.sampled_from([8.0, 15.0, 30.0]), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_full_sweep_diff(self, n, seed, radius, ticks):
        rng = np.random.default_rng(seed)
        area = Area(90.0, 90.0)
        pts = uniform_placement(n, area, rng=rng)
        grid = IncrementalGrid(pts, cell_size=radius)
        for _ in range(ticks):
            # Move a random subset only, so "stationary node keeps its
            # edges" paths are exercised too.
            move = rng.random(n) < rng.uniform(0.2, 1.0)
            new_pts = pts.copy()
            new_pts[move] = area.clamp(
                pts[move] + rng.normal(0.0, radius, size=(int(move.sum()), 2))
            )
            moved = grid.update(new_pts)
            np.testing.assert_array_equal(
                moved, (new_pts != pts).any(axis=1)
            )
            us, vs = grid.delta_pairs(radius, moved)
            got = np.sort(np.minimum(us, vs) * n + np.maximum(us, vs))

            def all_pairs(p):
                a, b = SpatialGrid(p, cell_size=radius).pair_arrays(radius)
                return np.sort(np.minimum(a, b) * n + np.maximum(a, b))

            old_keys, new_keys = all_pairs(pts), all_pairs(new_pts)
            touched = np.union1d(
                np.setdiff1d(new_keys, old_keys),
                np.setdiff1d(old_keys, new_keys),
            )
            # The delta sweep reports every *current* in-range pair with a
            # moved endpoint; the true edge delta is its diff against the
            # old adjacency restricted to the same pairs — so it must
            # cover all appeared edges, and appeared edges must be a
            # subset of the sweep.
            appeared = np.setdiff1d(new_keys, old_keys)
            assert np.isin(appeared, got).all()
            assert np.isin(got, new_keys).all()
            assert np.isin(touched, np.union1d(got, old_keys)).all()
            pts = new_pts


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
