"""Tests for the distributed protocol phases (hello, clustering, coverage,
gateway) — individually and against their centralised counterparts."""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.cluster.lowest_id import lowest_id_clustering
from repro.coverage.policy import compute_all_coverage_sets
from repro.errors import ProtocolError
from repro.graph.generators import chain_graph, paper_figure3_graph
from repro.protocols.clustering import DistributedLowestIdClustering
from repro.protocols.coverage import CoverageExchangeProtocol
from repro.protocols.gateway import GatewayDesignationProtocol
from repro.protocols.hello import NEIGHBOURS, HelloProtocol
from repro.sim.network import SimNetwork
from repro.types import CoveragePolicy

from coverage_oracle import ch_hop_walk
from strategies import connected_graphs


def count_by_type(trace):
    """Transmissions in ``trace`` keyed by message class name."""
    return Counter(type(e.message).__name__ for e in trace.entries)


def volume_by_type(trace):
    """Message volume in ``trace`` keyed by message class name."""
    volumes = Counter()
    for e in trace.entries:
        volumes[type(e.message).__name__] += e.message.size()
    return volumes


def run_through_clustering(graph):
    net = SimNetwork(graph)
    hello = HelloProtocol(net)
    hello.start()
    net.run_phase()
    clustering = DistributedLowestIdClustering(net)
    clustering.start()
    net.run_phase()
    return net, hello, clustering


class TestHello:
    def test_neighbours_discovered(self, fig3_graph):
        net = SimNetwork(fig3_graph)
        hello = HelloProtocol(net)
        hello.start()
        net.run_phase()
        for v in fig3_graph.nodes():
            assert net.node(v).state[NEIGHBOURS] == set(
                fig3_graph.neighbours(v))

    def test_one_message_per_node(self, fig3_graph):
        net = SimNetwork(fig3_graph)
        HelloProtocol(net).start()
        # protocol object created above registered handlers; start sends.
        net.run_phase()
        assert count_by_type(net.trace)["Hello"] == fig3_graph.num_nodes


class TestDistributedClustering:
    def test_requires_hello_first(self, fig3_graph):
        net = SimNetwork(fig3_graph)
        with pytest.raises(ProtocolError, match="HELLO"):
            DistributedLowestIdClustering(net)

    def test_figure3_roles(self, fig3_graph):
        _net, _hello, clustering = run_through_clustering(fig3_graph)
        structure = clustering.result()
        assert sorted(structure.clusterheads) == [1, 2, 3, 4]

    def test_one_declaration_per_node(self, fig3_graph):
        net, _hello, _clustering = run_through_clustering(fig3_graph)
        counts = count_by_type(net.trace)
        total = counts.get("ClusterHead", 0) + counts.get("NonClusterHead", 0)
        assert total == fig3_graph.num_nodes

    def test_chain_takes_linear_rounds(self):
        # Monotone ids along a chain: declarations ripple one hop per unit.
        n = 30
        net, _hello, clustering = run_through_clustering(chain_graph(n))
        # Hello finishes at t=1; the last declaration lands near t ~ n.
        assert net.sim.now >= n / 2

    def test_incomplete_phase_raises_on_result(self, fig3_graph):
        net = SimNetwork(fig3_graph)
        HelloProtocol(net).start()
        net.run_phase()
        clustering = DistributedLowestIdClustering(net)
        # start() not called: nobody decided.
        with pytest.raises(ProtocolError, match="never decided"):
            clustering.result()

    @settings(max_examples=40, deadline=None)
    @given(graph=connected_graphs())
    def test_matches_centralised(self, graph):
        _net, _hello, clustering = run_through_clustering(graph)
        assert clustering.result().head_of == lowest_id_clustering(graph).head_of


class TestCoverageExchange:
    @pytest.mark.parametrize("policy", list(CoveragePolicy))
    def test_matches_centralised_on_figure3(self, fig3_graph, policy):
        net, _hello, clustering = run_through_clustering(fig3_graph)
        coverage = CoverageExchangeProtocol(net, policy)
        coverage.start()
        net.run_phase()
        central = compute_all_coverage_sets(clustering.result(), policy)
        distributed = coverage.all_coverage_sets()
        assert set(central) == set(distributed)
        for head in central:
            assert central[head].c2 == distributed[head].c2
            assert central[head].c3 == distributed[head].c3
            assert (central[head].direct_witnesses
                    == distributed[head].direct_witnesses)
            assert (central[head].indirect_witnesses
                    == distributed[head].indirect_witnesses)

    @settings(max_examples=30, deadline=None)
    @given(graph=connected_graphs())
    def test_two_five_hop_matches_ch_hop_oracle(self, graph):
        net, _hello, clustering = run_through_clustering(graph)
        coverage = CoverageExchangeProtocol(net, CoveragePolicy.TWO_FIVE_HOP)
        coverage.start()
        net.run_phase()
        structure = clustering.result()
        assert coverage.all_coverage_sets() == {
            h: ch_hop_walk(structure, h) for h in structure.sorted_heads()
        }

    def test_requires_clustering_first(self, fig3_graph):
        net = SimNetwork(fig3_graph)
        HelloProtocol(net)
        with pytest.raises(ProtocolError, match="clustering"):
            CoverageExchangeProtocol(net)

    def test_message_budget(self, fig3_graph):
        # One CH_HOP1 and one CH_HOP2 per non-clusterhead.
        net, _hello, clustering = run_through_clustering(fig3_graph)
        coverage = CoverageExchangeProtocol(net)
        coverage.start()
        net.run_phase()
        counts = count_by_type(net.trace)
        non_heads = fig3_graph.num_nodes - 4
        assert counts["ChHop1"] == non_heads
        assert counts["ChHop2"] == non_heads

    def test_three_hop_messages_not_smaller(self, fig3_graph):
        def volume(policy):
            net, _h, _c = run_through_clustering(paper_figure3_graph())
            cov = CoverageExchangeProtocol(net, policy)
            cov.start()
            net.run_phase()
            return volume_by_type(net.trace).get("ChHop2", 0)

        assert volume(CoveragePolicy.THREE_HOP) >= volume(
            CoveragePolicy.TWO_FIVE_HOP
        )

    def test_coverage_of_non_head_rejected(self, fig3_graph):
        net, _hello, _clustering = run_through_clustering(fig3_graph)
        coverage = CoverageExchangeProtocol(net)
        coverage.start()
        net.run_phase()
        with pytest.raises(ProtocolError, match="not a clusterhead"):
            coverage.coverage_set_of(5)


class TestGatewayDesignation:
    def _build(self, graph, policy=CoveragePolicy.TWO_FIVE_HOP):
        net, _hello, clustering = run_through_clustering(graph)
        coverage = CoverageExchangeProtocol(net, policy)
        coverage.start()
        net.run_phase()
        gateway = GatewayDesignationProtocol(net, coverage)
        gateway.start()
        net.run_phase()
        return net, clustering, gateway

    def test_figure3_gateways(self, fig3_graph):
        _net, _clustering, gateway = self._build(fig3_graph)
        assert gateway.gateway_nodes() == frozenset({5, 6, 7, 8, 9})
        assert gateway.backbone_nodes() == frozenset(range(1, 10))

    def test_designation_complete(self, fig3_graph):
        _net, _clustering, gateway = self._build(fig3_graph)
        gateway.check_designation_complete()

    def test_second_hop_gateways_informed_via_ttl(self, fig3_graph):
        # Node 5 is a second-hop gateway of head 4 (pair (9, 5)); it is two
        # hops from 4, so it can only learn via 9's forwarded GATEWAY.
        _net, _clustering, gateway = self._build(fig3_graph)
        assert 5 in gateway.gateway_nodes()
        assert 4 in gateway.selections
        assert 5 in gateway.selections[4].gateways

    def test_gateway_message_budget(self, fig3_graph):
        net, clustering, _gateway = self._build(fig3_graph)
        counts = count_by_type(net.trace)
        # At least one GATEWAY per head; forwards bounded by selected
        # first-hop gateways per head.
        heads = len(clustering.result().clusterheads)
        assert counts["Gateway"] >= heads
        assert counts["Gateway"] <= 3 * fig3_graph.num_nodes

    @settings(max_examples=25, deadline=None)
    @given(graph=connected_graphs(max_nodes=18))
    def test_matches_centralised_backbone(self, graph):
        from repro.backbone.static_backbone import build_static_backbone

        _net, clustering, gateway = self._build(graph)
        central = build_static_backbone(lowest_id_clustering(graph))
        assert gateway.backbone_nodes() == central.nodes
