"""Tests for the reliable (ACK/retransmit + fallback) broadcast layer."""

import pytest

from repro.backbone.static_backbone import build_static_backbone
from repro.cluster.lowest_id import lowest_id_clustering
from repro.errors import BroadcastError, NodeNotFoundError
from repro.faults.injector import FaultInjector
from repro.faults.reliable import (
    BackboneFallback,
    ReliableBroadcast,
    reliable_sd,
    reliable_si,
)
from repro.faults.schedule import FaultSchedule, NodeDown, apply_schedule
from repro.graph.adjacency import Graph
from repro.graph.generators import random_geometric_network
from repro.sim.network import SimNetwork
from repro.types import CoveragePolicy


def build(seed=7, n=40, degree=8.0):
    net = random_geometric_network(n, degree, rng=seed)
    return net.graph, lowest_id_clustering(net.graph)


class TestValidation:
    def test_bad_arq_parameters_rejected(self):
        graph, _ = build(n=20)
        net = SimNetwork(graph)
        with pytest.raises(BroadcastError, match="max_retries"):
            ReliableBroadcast(net, graph.nodes(), max_retries=-1)
        with pytest.raises(BroadcastError, match="round trip"):
            ReliableBroadcast(net, graph.nodes(), base_timeout=1.0)
        with pytest.raises(BroadcastError, match="backoff"):
            ReliableBroadcast(net, graph.nodes(), backoff=0.5)

    def test_unknown_source_rejected(self):
        graph, structure = build(n=20)
        net = SimNetwork(graph)
        protocol = reliable_si(net, structure, fallback=False)
        with pytest.raises(NodeNotFoundError):
            protocol.start(999)


class TestIdealChannel:
    def test_full_delivery_no_retransmissions(self):
        graph, structure = build()
        net = SimNetwork(graph)
        protocol = reliable_si(net, structure, fallback=False)
        protocol.start(min(graph.nodes()))
        net.run_phase()
        out = protocol.outcome()
        assert out.result.received == frozenset(graph.nodes())
        assert out.retransmissions == 0
        assert out.declared_dead == frozenset()
        # Every non-source node acks exactly once on an ideal channel
        # (the source's own data transmission is its implicit ACK).
        assert out.ack_transmissions == graph.num_nodes - 1
        assert out.result.transmissions == out.data_transmissions

    def test_forward_set_matches_static_backbone(self):
        graph, structure = build()
        net = SimNetwork(graph)
        backbone = build_static_backbone(structure)
        protocol = reliable_si(net, structure, fallback=False)
        source = min(graph.nodes())
        protocol.start(source)
        net.run_phase()
        out = protocol.outcome()
        assert out.result.forward_nodes == backbone.nodes | {source}


class TestLossyChannel:
    def test_delivers_where_plain_si_drops(self):
        graph, structure = build()
        source = min(graph.nodes())
        net = SimNetwork(graph, loss_probability=0.3, rng=0)
        protocol = reliable_si(net, structure, fallback=False)
        protocol.start(source)
        net.run_phase()
        out = protocol.outcome()
        assert out.result.received == frozenset(graph.nodes())
        assert out.retransmissions > 0
        assert out.overhead_factor > 1.0

    def test_duplicate_data_triggers_reack_only(self):
        # Two nodes: the source retransmits until acked; the neighbour
        # re-acks duplicates but never re-forwards.
        graph = Graph(edges=[(0, 1)])
        net = SimNetwork(graph, loss_probability=0.6, rng=3)
        protocol = ReliableBroadcast(net, [0, 1], max_retries=8)
        protocol.start(0)
        net.run_phase()
        out = protocol.outcome()
        assert out.result.received == frozenset({0, 1})
        # 1 forwarded exactly once no matter how many copies it heard.
        assert out.result.forward_nodes == frozenset({0, 1})


class TestCrashFallback:
    def test_crashed_relay_triggers_repair(self):
        graph, structure = build(seed=7)
        source = min(graph.nodes())
        backbone = build_static_backbone(structure)
        victim = max(v for v in backbone.nodes if v != source)
        net = SimNetwork(graph)
        injector = FaultInjector(net)
        apply_schedule(FaultSchedule([NodeDown(time=0.5, node=victim)]),
                       injector)
        protocol = reliable_si(net, structure, injector=injector)
        protocol.start(source)
        net.run_phase()
        out = protocol.outcome()
        assert victim in out.declared_dead
        assert victim not in out.result.received
        # Every node still reachable without the victim is delivered.
        from repro.workload.faultsweep import eligible_nodes

        reachable = eligible_nodes(graph, source, {victim})
        assert reachable <= set(out.result.received)

    def test_crashed_node_never_acks_or_forwards(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        net = SimNetwork(graph)
        injector = FaultInjector(net)
        injector.crash(1)
        protocol = ReliableBroadcast(net, [0, 1, 2], max_retries=2,
                                     injector=injector)
        protocol.start(0)
        net.run_phase()
        out = protocol.outcome()
        assert 1 not in out.result.received
        assert 2 not in out.result.received  # 1 was the only path
        assert out.declared_dead == frozenset({1})
        assert out.gave_up == frozenset({(0, 1)})

    def test_sd_plan_promotes_new_relays_after_crash(self):
        graph, structure = build(seed=7)
        source = min(graph.nodes())
        backbone = build_static_backbone(structure)
        victim = max(v for v in backbone.nodes if v != source)
        net = SimNetwork(graph)
        injector = FaultInjector(net)
        apply_schedule(FaultSchedule([NodeDown(time=0.5, node=victim)]),
                       injector)
        protocol = reliable_sd(net, structure, source, injector=injector)
        protocol.start(source)
        net.run_phase()
        out = protocol.outcome()
        from repro.workload.faultsweep import eligible_nodes

        reachable = eligible_nodes(graph, source, {victim})
        assert reachable <= set(out.result.received)
        # The lean SD plan lost a relay; repair had to promote survivors.
        assert out.promoted


def scratch_cds(graph, dead, policy):
    """The oracle: a from-scratch backbone on ``graph`` minus ``dead``."""
    stripped = graph.copy()
    for v in dead:
        for w in sorted(stripped.neighbours_view(v)):
            stripped.remove_edge(v, w)
    backbone = build_static_backbone(lowest_id_clustering(stripped), policy)
    return frozenset(backbone.nodes) - frozenset(dead)


class TestBackboneFallback:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("policy", [
        pytest.param(CoveragePolicy.TWO_FIVE_HOP, id="2.5"),
        pytest.param(CoveragePolicy.THREE_HOP, id="3"),
    ])
    def test_node_removal_reruns_gateway_selection(self, policy, seed):
        graph, structure = build(seed=seed)
        fallback = BackboneFallback(graph, policy)
        heads = sorted(structure.clusterheads)
        members = sorted(set(graph.nodes()) - set(heads))
        # Two clusterheads and two members die; the batch is reported in
        # two calls, the second repeating a node from the first.
        calls = [[heads[0], members[0]],
                 [heads[-1], members[-1], heads[0]]]
        dead = set()
        for call in calls:
            repaired = fallback.backbone_after_failures(call)
            dead |= set(call)
            assert not repaired & dead
            assert repaired == scratch_cds(graph, dead, policy)
        assert fallback.removed == frozenset(dead)

    def test_repeated_and_duplicate_failures(self):
        graph, structure = build(seed=9, n=30)
        fallback = BackboneFallback(graph)
        a, b = sorted(graph.nodes())[:2]
        first = fallback.backbone_after_failures([a])
        second = fallback.backbone_after_failures([a, b])  # a is repeated
        assert a not in second and b not in second
        assert fallback.removed == frozenset({a, b})
        assert first  # sanity: repairs return non-empty backbones

    def test_unknown_node_rejected(self):
        graph, _ = build(n=20)
        with pytest.raises(NodeNotFoundError):
            BackboneFallback(graph).backbone_after_failures([999])
        # A mixed batch is rejected as a whole: the known id is not
        # removed, and the fallback carries on as if never called.
        known, other = sorted(graph.nodes())[:2]
        fallback = BackboneFallback(graph)
        with pytest.raises(NodeNotFoundError):
            fallback.backbone_after_failures([known, 999])
        assert fallback.removed == frozenset()
        clean = BackboneFallback(graph)
        assert (fallback.backbone_after_failures([other])
                == clean.backbone_after_failures([other]))
        assert fallback.removed == clean.removed == frozenset({other})

    def test_original_graph_not_mutated(self):
        graph, _ = build(n=25)
        edges = graph.edges()
        fallback = BackboneFallback(graph)
        fallback.backbone_after_failures(sorted(graph.nodes())[:3])
        assert graph.edges() == edges


class TestDeterminism:
    def test_same_seed_identical_outcome(self):
        def run():
            graph, structure = build(seed=13, n=30)
            source = min(graph.nodes())
            net = SimNetwork(graph, loss_probability=0.25, rng=5)
            injector = FaultInjector(net, rng=6)
            apply_schedule(FaultSchedule([NodeDown(time=2.0, node=max(
                build_static_backbone(structure).nodes))]), injector)
            protocol = reliable_si(net, structure, injector=injector)
            protocol.start(source)
            net.run_phase()
            out = protocol.outcome()
            trace = [(e.time, e.sender, type(e.message).__name__)
                     for e in net.trace.entries]
            return out, trace

        out_a, trace_a = run()
        out_b, trace_b = run()
        assert trace_a == trace_b
        assert out_a == out_b
