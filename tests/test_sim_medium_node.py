"""Tests for the wireless medium, sim nodes and traces."""

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.graph.adjacency import Graph
from repro.sim.engine import Simulator
from repro.sim.medium import WirelessMedium
from repro.sim.messages import Hello, NonClusterHead
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.trace import TraceRecorder


@pytest.fixture
def triangle_net():
    return SimNetwork(Graph(edges=[(0, 1), (1, 2), (0, 2)]))


class TestMedium:
    def test_broadcast_reaches_neighbours_only(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        net = SimNetwork(g)
        got = []
        for node in net:
            node.on(Hello, lambda n, s, m: got.append((n.id, s)))
        net.sim.schedule(0.0, lambda: net.node(0).send(Hello(origin=0)))
        net.run_phase()
        assert got == [(1, 0)]  # node 2 is out of range

    def test_latency_applied(self, triangle_net):
        times = {}
        for node in triangle_net:
            node.on(Hello, lambda n, s, m: times.setdefault(n.id, triangle_net.sim.now))
        triangle_net.sim.schedule(0.0, lambda: triangle_net.node(0).send(Hello(origin=0)))
        triangle_net.run_phase()
        assert times == {1: 1.0, 2: 1.0}

    def test_deterministic_delivery_order(self):
        g = Graph(edges=[(0, 2), (1, 2)])
        net = SimNetwork(g)
        order = []
        net.node(2).on(Hello, lambda n, s, m: order.append(s))
        # Both 0 and 1 transmit at t=0; node 2 must hear 0 first.
        net.sim.schedule(0.0, lambda: net.node(1).send(Hello(origin=1)),
                         priority=(1,))
        net.sim.schedule(0.0, lambda: net.node(0).send(Hello(origin=0)),
                         priority=(0,))
        net.run_phase()
        assert order == [0, 1]

    def test_unknown_sender_rejected(self, triangle_net):
        with pytest.raises(SimulationError):
            triangle_net.medium.transmit(99, Hello(origin=99))

    def test_invalid_loss_probability(self):
        g = Graph(edges=[(0, 1)])
        sim = Simulator()
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(SimulationError):
                WirelessMedium(sim, g, loss_probability=bad)
        with pytest.raises(SimulationError):
            WirelessMedium(sim, g).set_loss(-1.0)

    def test_total_loss_is_valid(self):
        # p = 1.0 is a legitimate experiment (total blackout), not an error.
        g = Graph(edges=[(0, 1)])
        net = SimNetwork(g, loss_probability=1.0, rng=0)
        got = []
        net.node(1).on(Hello, lambda n, s, m: got.append(s))
        net.sim.schedule(0.0, lambda: net.node(0).send(Hello(origin=0)))
        net.run_phase()
        assert got == []

    def test_lossy_channel_drops_some(self):
        g = Graph(edges=[(0, i) for i in range(1, 200)])
        net = SimNetwork(g, loss_probability=0.5, rng=0)
        got = []
        for node in net:
            node.on(Hello, lambda n, s, m: got.append(n.id))
        net.sim.schedule(0.0, lambda: net.node(0).send(Hello(origin=0)))
        net.run_phase()
        assert 40 < len(got) < 160  # ~half of 199


class TestSimNode:
    def test_duplicate_handler_rejected(self, triangle_net):
        node = triangle_net.node(0)
        node.on(Hello, lambda n, s, m: None)
        with pytest.raises(ProtocolError):
            node.on(Hello, lambda n, s, m: None)

    def test_replace_handler_allowed(self, triangle_net):
        node = triangle_net.node(0)
        node.on(Hello, lambda n, s, m: None)
        node.replace_handler(Hello, lambda n, s, m: None)

    def test_unhandled_message_ignored(self, triangle_net):
        # No NonClusterHead handler anywhere: must not raise.
        triangle_net.sim.schedule(
            0.0, lambda: triangle_net.node(0).send(NonClusterHead(origin=0, head=0))
        )
        triangle_net.run_phase()


class TestTrace:
    def test_counts_and_volume(self, triangle_net):
        triangle_net.sim.schedule(0.0, lambda: triangle_net.node(0).send(Hello(origin=0)))
        triangle_net.sim.schedule(1.0, lambda: triangle_net.node(1).send(
            NonClusterHead(origin=1, head=0)))
        triangle_net.run_phase()
        trace = triangle_net.trace
        assert trace.total_messages == 2
        assert [type(e.message).__name__ for e in trace.entries] == [
            "Hello", "NonClusterHead"]
        assert trace.total_volume == 1 + 2
        assert trace.entries[1].message.size() == 2

    def test_messages_from_and_completion(self, triangle_net):
        triangle_net.sim.schedule(0.0, lambda: triangle_net.node(0).send(Hello(origin=0)))
        triangle_net.run_phase()
        entries = triangle_net.trace.entries
        assert [e.sender for e in entries] == [0]
        assert entries[-1].time == 0.0

    def test_render_truncation(self):
        trace = TraceRecorder()
        for i in range(10):
            trace.record(float(i), i, Hello(origin=i))
        text = trace.render(limit=3)
        assert "7 more transmissions" in text

    def test_empty_trace(self):
        trace = TraceRecorder()
        assert trace.entries == []
        assert trace.render() == ""
