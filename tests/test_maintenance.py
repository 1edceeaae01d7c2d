"""Tests for churn metrics, message accounting and the mobility session.

``TestAdverseMaintenance`` compares :class:`KernelMobilitySession` with the
from-scratch oracle where a repair is hardest: clusterheads that vanish
outright and repeated disconnection.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.backbone.static_backbone import Backbone, build_static_backbone
from repro.cluster.lowest_id import lowest_id_clustering
from repro.errors import ConfigurationError
from repro.geometry.mobility import MobilityModel, RandomWalk, RandomWaypoint
from repro.graph.adjacency import Graph
from repro.graph.generators import random_geometric_network
from repro.graph.network import Network
from repro.maintenance.kernels import KernelMobilitySession
from repro.maintenance.stability import rebuild_messages, resignalling_messages
from repro.types import CoveragePolicy

from mobility_oracle import (
    ScratchSession,
    backbone_churn,
    cluster_churn,
    session_network,
)


def clustering_of(edges, extra_nodes=()):
    g = Graph(edges=edges)
    for v in extra_nodes:
        g.add_node(v)
    return lowest_id_clustering(g)


class TestClusterChurn:
    def test_identical_snapshots_zero_churn(self, fig3_clustering):
        churn = cluster_churn(fig3_clustering, fig3_clustering)
        assert churn.role_change_count == 0
        assert churn.reassigned_members == frozenset()
        assert churn.churn_rate == 0.0

    def test_head_flip_detected(self):
        before = clustering_of([(1, 2), (2, 3)])  # heads {1, 3}
        after_structure = clustering_of([(1, 2), (1, 3)])  # head {1} only
        churn = cluster_churn(before, after_structure)
        assert 3 in churn.heads_lost
        assert churn.role_change_count >= 1

    def test_member_reassignment(self):
        # 5 moves from cluster 1 to cluster 2 while staying a member.
        g_before = Graph(edges=[(1, 5), (2, 6), (1, 3), (2, 4)])
        g_after = Graph(edges=[(2, 5), (2, 6), (1, 3), (2, 4)])
        g_after.add_node(1)
        before = lowest_id_clustering(g_before)
        after = lowest_id_clustering(g_after)
        churn = cluster_churn(before, after)
        assert 5 in churn.reassigned_members

    def test_mismatched_node_sets_rejected(self, fig3_clustering):
        other = clustering_of([(0, 1)])
        with pytest.raises(ConfigurationError):
            cluster_churn(fig3_clustering, other)


class TestBackboneChurn:
    def test_no_change(self, fig3_clustering):
        bb = build_static_backbone(fig3_clustering)
        churn = backbone_churn(bb, bb)
        assert churn.gateway_turnover == 0
        assert churn.heads_with_new_selection == frozenset()
        assert churn.resignalling_rate == 0.0

    def test_gateway_turnover_detected(self):
        net = random_geometric_network(25, 8.0, rng=5)
        cs = lowest_id_clustering(net.graph)
        bb = build_static_backbone(cs)
        moved = net.moved(
            RandomWalk(speed=6.0, area=net.area, rng=1).step(
                net.position_array(), 1.0
            )
        )
        cs2 = lowest_id_clustering(moved.graph)
        bb2 = build_static_backbone(cs2)
        churn = backbone_churn(bb, bb2)
        # Movement of this magnitude virtually always changes something.
        assert (
            churn.gateway_turnover > 0
            or churn.heads_with_new_selection
            or cs.clusterheads != cs2.clusterheads
        )


class TestMobilitySession:
    def test_session_steps_and_history(self):
        net = random_geometric_network(30, 10.0, rng=11)
        session = KernelMobilitySession.from_network(
            net, RandomWaypoint(speed_range=(0.5, 1.5), area=net.area, rng=2)
        )
        reports = session.run(5)
        assert len(reports) == 5
        assert session.history == reports
        assert reports[-1].time == pytest.approx(5.0)

    def test_reports_carry_churn(self):
        net = random_geometric_network(30, 10.0, rng=12)
        session = KernelMobilitySession.from_network(
            net, RandomWalk(speed=3.0, area=net.area, rng=3)
        )
        report = session.step()
        assert report.flipped == report.heads_gained + report.heads_lost
        assert min(report.reassigned, report.gateways_gained,
                   report.gateways_lost, report.resignalling) >= 0
        assert report.link_changes >= 0
        assert report.connected is not None

    def test_stationary_model_no_churn(self):
        net = random_geometric_network(25, 8.0, rng=13)
        session = KernelMobilitySession.from_network(
            net, RandomWalk(speed=0.0, area=net.area, rng=4)
        )
        report = session.step()
        assert report.link_changes == 0
        assert report.flipped == report.reassigned == 0
        assert report.gateways_gained == report.gateways_lost == 0
        assert report.resignalling == 0
        assert report.connected

    def test_faster_movement_more_churn(self):
        def total_churn(speed, seed=21):
            net = random_geometric_network(40, 10.0, rng=seed)
            session = KernelMobilitySession.from_network(
                net, RandomWalk(speed=speed, area=net.area, rng=seed)
            )
            return sum(r.link_changes for r in session.run(8))

        assert total_churn(0.5) < total_churn(8.0)


#: (policy, seed, speed) -> per tick (hello, declaration, ch_hop1,
#: ch_hop2, gateway, rebuild) recorded from the former
#: LiveMaintenanceSession, whose accounting these functions replace.
LIVE_GOLDEN = {
    ("2.5-hop", 21, 0.5): [
        (10, 9, 12, 13, 11, 168), (5, 0, 0, 3, 2, 168),
        (6, 0, 1, 1, 0, 168), (9, 10, 13, 16, 13, 168),
        (13, 1, 3, 8, 12, 168), (10, 0, 2, 6, 6, 168),
    ],
    ("2.5-hop", 21, 2.0): [
        (23, 10, 14, 17, 20, 166), (19, 1, 3, 11, 17, 167),
        (17, 0, 2, 10, 10, 166), (21, 14, 23, 23, 23, 167),
        (23, 4, 7, 25, 25, 169), (13, 1, 4, 10, 20, 169),
    ],
    ("2.5-hop", 21, 6.0): [
        (31, 14, 20, 24, 23, 169), (35, 8, 17, 21, 19, 165),
        (36, 8, 23, 21, 25, 169), (36, 15, 25, 31, 17, 165),
        (35, 6, 19, 28, 26, 170), (36, 6, 13, 22, 24, 168),
    ],
    ("2.5-hop", 33, 0.5): [
        (10, 3, 9, 13, 6, 166), (12, 1, 2, 10, 3, 166),
        (12, 3, 8, 14, 13, 168), (10, 3, 8, 10, 15, 167),
        (8, 4, 9, 17, 18, 168), (13, 7, 12, 19, 23, 167),
    ],
    ("2.5-hop", 33, 2.0): [
        (27, 17, 28, 24, 29, 171), (27, 14, 26, 27, 23, 169),
        (24, 14, 25, 29, 30, 172), (20, 13, 24, 25, 22, 169),
        (23, 13, 17, 28, 21, 168), (25, 8, 23, 24, 25, 169),
    ],
    ("2.5-hop", 33, 6.0): [
        (38, 16, 27, 24, 26, 170), (38, 18, 23, 30, 27, 171),
        (38, 14, 25, 31, 21, 167), (36, 14, 27, 29, 24, 168),
        (35, 10, 22, 27, 26, 172), (35, 10, 20, 29, 21, 167),
    ],
    ("3-hop", 21, 0.5): [
        (10, 9, 12, 13, 13, 168), (5, 0, 0, 3, 0, 168),
        (6, 0, 1, 1, 0, 168), (9, 10, 13, 16, 15, 168),
        (13, 1, 3, 8, 11, 169), (10, 0, 2, 6, 4, 168),
    ],
    ("3-hop", 21, 2.0): [
        (23, 10, 14, 17, 21, 167), (19, 1, 3, 11, 19, 167),
        (17, 0, 2, 10, 16, 167), (21, 14, 23, 23, 23, 167),
        (23, 4, 7, 25, 23, 170), (13, 1, 4, 10, 22, 169),
    ],
    ("3-hop", 21, 6.0): [
        (31, 14, 20, 24, 23, 169), (35, 8, 17, 21, 21, 167),
        (36, 8, 23, 21, 25, 169), (36, 15, 25, 31, 17, 165),
        (35, 6, 19, 28, 27, 171), (36, 6, 13, 22, 25, 169),
    ],
    ("3-hop", 33, 0.5): [
        (10, 3, 9, 13, 6, 166), (12, 1, 2, 10, 0, 166),
        (12, 3, 8, 14, 19, 168), (10, 3, 8, 10, 15, 167),
        (8, 4, 9, 17, 16, 168), (13, 7, 12, 19, 13, 168),
    ],
    ("3-hop", 33, 2.0): [
        (27, 17, 28, 24, 31, 173), (27, 14, 26, 27, 20, 170),
        (24, 14, 25, 29, 30, 172), (20, 13, 24, 25, 24, 170),
        (23, 13, 17, 28, 20, 169), (25, 8, 23, 24, 26, 170),
    ],
    ("3-hop", 33, 6.0): [
        (38, 16, 27, 24, 25, 169), (38, 18, 23, 30, 27, 171),
        (38, 14, 25, 31, 21, 167), (36, 14, 27, 29, 24, 168),
        (35, 10, 22, 27, 26, 172), (35, 10, 20, 29, 22, 168),
    ],
}


@dataclass(frozen=True)
class AccountedTick:
    """A tick's report fields plus the snapshot it left behind."""

    time: float
    link_changes: int
    network: Network
    backbone: Backbone


def accounted_run(speed, seed=21, n=40, ticks=1, dt=1.0,
                  policy=CoveragePolicy.TWO_FIVE_HOP):
    """(tick, resignalling messages) per tick of a mobility session."""
    net = random_geometric_network(n, 10.0, rng=seed)
    session = KernelMobilitySession.from_network(
        net, RandomWalk(speed=speed, area=net.area, rng=seed), policy
    )
    before = session.backbone()
    out = []
    for _ in range(ticks):
        report = session.step(dt)
        after = session.backbone()
        tick = AccountedTick(report.time, report.link_changes,
                             session_network(session), after)
        out.append((tick, resignalling_messages(before, after)))
        before = after
    return out


class TestMessageAccounting:
    @pytest.mark.parametrize("key", sorted(LIVE_GOLDEN),
                             ids=lambda key: "-".join(map(str, key)))
    def test_matches_golden(self, key):
        policy, seed, speed = key
        got = [
            (*messages.values(), rebuild_messages(report.backbone))
            for report, messages in accounted_run(
                speed, seed=seed, ticks=6, policy=CoveragePolicy(policy)
            )
        ]
        assert got == LIVE_GOLDEN[key]

    def test_stationary_zero_cost(self):
        [(report, messages)] = accounted_run(speed=0.0)
        assert sum(messages.values()) == 0
        assert report.link_changes == 0
        assert rebuild_messages(report.backbone) > 0

    def test_movement_costs_messages(self):
        [(report, messages)] = accounted_run(speed=4.0)
        assert report.link_changes > 0
        assert sum(messages.values()) > 0
        assert messages["hello"] > 0

    def test_incremental_cheaper_than_rebuild_at_low_speed(self):
        run = accounted_run(speed=0.5, ticks=10)
        totals = sum(sum(messages.values()) for _, messages in run)
        rebuilds = sum(rebuild_messages(r.backbone) for r, _ in run)
        assert 0 < totals < rebuilds  # slow movement still costs something

    def test_cost_grows_with_speed(self):
        def total_cost(speed):
            run = accounted_run(speed=speed, seed=33, ticks=8)
            return sum(sum(messages.values()) for _, messages in run)

        assert total_cost(0.5) < total_cost(6.0)

    def test_message_keys_fixed(self):
        [(_, messages)] = accounted_run(speed=2.0)
        assert list(messages) == [
            "hello", "declaration", "ch_hop1", "ch_hop2", "gateway",
        ]

    def test_one_count_per_tick(self):
        run = accounted_run(speed=1.0, ticks=5, dt=2.0)
        assert [r.time for r, _ in run] == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_rebuild_cost_matches_distributed_build_magnitude(self):
        # The analytic rebuild cost should approximate what the simulator
        # actually sends for a full construction of the same snapshot.
        from repro.protocols.runner import run_distributed_build

        [(report, _)] = accounted_run(speed=0.0, seed=8)
        build = run_distributed_build(report.network.graph)
        assert rebuild_messages(report.backbone) == pytest.approx(
            build.total_messages, rel=0.05
        )

    def test_node_set_mismatch_rejected(self):
        before = build_static_backbone(clustering_of([(1, 2)]))
        after = build_static_backbone(clustering_of([(1, 2), (2, 3)]))
        with pytest.raises(ConfigurationError):
            resignalling_messages(before, after)


class Exile(MobilityModel):
    """Teleport chosen rows out of radio range; everyone else holds still.

    A degenerate mobility model for adverse-maintenance tests: exiled
    nodes keep existing (the session's node set is fixed) but lose every
    incident link at once — a clusterhead vanishing outright rather than
    drifting away one edge at a time.
    """

    def __init__(self, rows, area):
        super().__init__(area, rng=0)
        self.rows = tuple(rows)

    def step(self, positions, dt):
        pts = np.array(positions, dtype=float)
        for offset, row in enumerate(self.rows):
            # Far from everyone, including the other exiles.
            pts[row] = (1e6 + 1e3 * offset, 1e6)
        return pts


class TestAdverseMaintenance:
    """Disconnected snapshots and clusterheads vanishing outright."""

    def make_sessions(self, rows, seed=17, n=30):
        """A full-recompute and an incremental-repair session over one motion.

        The incremental side is the kernel session: it rebuilds the graph
        and backbone arrays each tick but repairs the clustering from the
        changed edges only (``repair_lowest_id_rows``).
        """
        net = random_geometric_network(n, 10.0, rng=seed)
        order = net.graph.nodes()
        victims = [order.index(v) for v in rows]
        return (
            ScratchSession(net, Exile(victims, net.area)),
            KernelMobilitySession.from_network(net, Exile(victims, net.area)),
            net,
        )

    def test_disconnected_snapshot_reported_not_fatal(self):
        net = random_geometric_network(30, 10.0, rng=17)
        head = min(lowest_id_clustering(net.graph).clusterheads)
        full, inc, _ = self.make_sessions([head])
        ro, rk = full.step(), inc.step()
        assert ro.connected is False and rk.connected is False
        # Churn is still accounted and structures still derived.
        assert rk.flipped == ro.cluster_churn.role_change_count
        assert rk.reassigned == len(ro.cluster_churn.reassigned_members)
        assert rk.resignalling == len(
            ro.backbone_churn.heads_with_new_selection)
        for structure in (ro.structure, inc.structure()):
            assert set(structure.head_of) == set(net.graph.nodes())

    def test_vanished_clusterhead_becomes_isolated_self_head(self):
        net = random_geometric_network(30, 10.0, rng=17)
        head = min(lowest_id_clustering(net.graph).clusterheads)
        full, inc, _ = self.make_sessions([head])
        full.step()
        inc.step()
        for backbone in (full.backbone, inc.backbone()):
            # The exile keeps its (lowest) id, so it stays a head — but of
            # a singleton cluster, and it can no longer sit on the backbone
            # as anyone's gateway.
            assert backbone.structure.head_of[head] == head
            assert backbone.structure.members(head) == frozenset()
            assert head not in backbone.gateways

    def test_incremental_matches_full_after_vanishing(self):
        heads = sorted(lowest_id_clustering(
            random_geometric_network(30, 10.0, rng=17).graph).clusterheads)
        # Kill two heads at once: batch edge removal through the repair
        # cascade, then a second tick with no further motion (idempotence).
        full, inc, _ = self.make_sessions(heads[:2])
        for _ in range(2):
            a = full.step()
            b = inc.step()
            backbone = inc.backbone()
            assert backbone.structure.head_of == a.structure.head_of
            assert backbone.nodes == a.backbone.nodes
            assert backbone.gateways == a.backbone.gateways
            assert b.connected == a.connected

    def test_incremental_survives_repeated_disconnection(self):
        # Alternate exile ticks with stationary ticks; the incremental
        # session must track the from-scratch derivation throughout.
        net = random_geometric_network(25, 8.0, rng=19)
        victim = max(net.graph.nodes())
        order = net.graph.nodes()
        inc = KernelMobilitySession.from_network(
            net, Exile([order.index(victim)], net.area)
        )
        for _ in range(3):
            inc.step()
            scratch = lowest_id_clustering(session_network(inc).graph)
            assert inc.structure().head_of == scratch.head_of
            assert inc.backbone().nodes == \
                build_static_backbone(scratch).nodes
