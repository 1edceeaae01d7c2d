"""Tests for the channel-model seam: base protocol, identity, factory.

Identity: a medium carrying an :class:`IdealChannel` replays the bare
medium bit for bit (same trace, receptions and reception times).
"""

import pytest

from repro.channel import (
    CHANNELS,
    MACS,
    ChannelModel,
    ChannelStats,
    IdealChannel,
    SinrChannel,
    SlottedCsmaMac,
    TdmaMac,
    make_channel,
    make_mac,
)
from repro.errors import ConfigurationError, SimulationError
from repro.graph.adjacency import Graph
from repro.graph.generators import random_geometric_network
from repro.protocols.broadcast import DistributedSIBroadcast
from repro.sim.network import SimNetwork


def flood(graph, channel=None, *, loss=0.0, seed=11, source=0):
    net = SimNetwork(graph, loss_probability=loss, rng=seed, channel=channel)
    protocol = DistributedSIBroadcast(net, graph.nodes())
    protocol.start(source)
    net.run_phase()
    return protocol.result(), net


class TestStats:
    def test_as_dict_key_order(self):
        stats = ChannelStats(aired=3, collisions=1, captures=2)
        assert list(stats.as_dict()) == [
            "aired", "collisions", "captures", "half_duplex_drops",
            "mac_deferrals", "mac_drops",
        ]
        assert stats.as_dict()["aired"] == 3

    def test_stats_fold_in_mac_counters(self):
        mac = TdmaMac(frame=4)
        channel = IdealChannel(mac=mac)
        graph = random_geometric_network(15, 5.0, rng=3).graph
        flood(graph, channel)
        stats = channel.stats()
        assert stats.mac_deferrals == mac.deferrals > 0
        assert stats.mac_drops == 0


class TestIdentity:
    def test_ideal_channel_reproduces_bare_medium(self):
        graph = random_geometric_network(30, 8.0, rng=5).graph
        bare, bare_net = flood(graph, None, loss=0.25)
        ideal, ideal_net = flood(graph, IdealChannel(), loss=0.25)
        assert bare_net.trace.entries == ideal_net.trace.entries
        assert bare.received == ideal.received
        assert bare.reception_time == ideal.reception_time
        assert bare.transmissions == ideal.transmissions

    def test_only_channel_runs_report_counters(self):
        graph = random_geometric_network(15, 5.0, rng=3).graph
        bare, _ = flood(graph, None)
        ideal, _ = flood(graph, IdealChannel())
        assert bare.channel is None
        assert ideal.channel is not None
        assert ideal.channel["aired"] == ideal.transmissions
        assert ideal.channel["collisions"] == 0

    def test_base_channel_accepts_everything(self):
        channel = ChannelModel()
        assert channel.accepts(0, 1, 0.0)
        assert channel.air_delay(0) == 0.0


class TestAttachment:
    def test_set_channel_binds_and_detaches(self):
        graph = Graph(edges=[(0, 1)])
        channel = IdealChannel(mac=TdmaMac())
        net = SimNetwork(graph, channel=channel)
        assert channel.medium is net.medium
        assert channel.mac.medium is net.medium
        net.medium.set_channel(None)
        assert net.medium.channel is None

    def test_collision_medium_rejects_channels(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(SimulationError):
            SimNetwork(graph, collisions=True, channel=IdealChannel())

    def test_unbound_mac_has_no_slot(self):
        with pytest.raises(SimulationError):
            TdmaMac().slot


class TestFactory:
    def test_roundtrip_all_names(self):
        network = random_geometric_network(10, 4.0, rng=1)
        for name in MACS:
            mac = make_mac(name, rng=0)
            assert (mac is None) == (name == "instant")
        for name in CHANNELS:
            channel = make_channel(name, network)
            assert isinstance(channel, ChannelModel)
        assert isinstance(make_channel("sinr", network), SinrChannel)
        assert isinstance(make_mac("csma", rng=0), SlottedCsmaMac)
        assert make_channel("none") is None

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            make_mac("aloha")
        with pytest.raises(ConfigurationError):
            make_channel("rayleigh")

    def test_sinr_needs_a_network(self):
        with pytest.raises(ConfigurationError):
            make_channel("sinr")

    def test_mac_without_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            make_channel("none", mac=TdmaMac())


class TestSinrValidation:
    def test_parameters_validated(self):
        network = random_geometric_network(10, 4.0, rng=1)
        with pytest.raises(SimulationError):
            SinrChannel(network, alpha=0.0)
        with pytest.raises(SimulationError):
            SinrChannel(network, threshold=-1.0)
        with pytest.raises(SimulationError):
            SinrChannel(network, noise_margin=0.5)
        with pytest.raises(SimulationError):
            SinrChannel(network, tx_power=0.0)

    def test_clear_channel_delivers_every_edge(self):
        # Calibration invariant: with a TDMA frame long enough that no two
        # transmissions overlap, every unit-disk edge clears the SINR
        # threshold and flooding delivers to everyone.
        network = random_geometric_network(25, 6.0, rng=9)
        n = network.graph.num_nodes
        channel = SinrChannel(network, mac=TdmaMac(frame=n))
        result, _ = flood(network.graph, channel)
        assert len(result.received) == n
        assert result.channel["collisions"] == 0

    def test_interference_destroys_delivery_without_a_mac(self):
        # The storm worst case: every relay airs the instant it hears the
        # packet, so the air is saturated and flooding starves itself.
        network = random_geometric_network(60, 10.0, rng=9)
        channel = SinrChannel(network)
        result, _ = flood(network.graph, channel)
        assert len(result.received) < network.graph.num_nodes
        assert result.channel["collisions"] > 0


def _reference_power(channel, network, tx, rx):
    """The pathloss expression as first written: abs offsets, ``max``."""
    x1, y1 = network.positions[tx]
    x2, y2 = network.positions[rx]
    dx = abs(x1 - x2)
    dy = abs(y1 - y2)
    if network.torus:
        dx = min(dx, network.area.width - dx)
        dy = min(dy, network.area.height - dy)
    d = max((dx * dx + dy * dy) ** 0.5, 1e-3)
    return channel.tx_power * d ** -channel.alpha


class TestSinrPowerMemo:
    @pytest.mark.parametrize("torus", [False, True])
    def test_power_equals_reference_expression_bit_for_bit(self, torus):
        network = random_geometric_network(40, 8.0, rng=4, torus=torus)
        channel = SinrChannel(network, alpha=3.5, tx_power=2.0)
        nodes = network.graph.nodes()
        for tx in nodes:
            for rx in nodes:
                if tx != rx:
                    assert channel._power(tx, rx) == \
                        _reference_power(channel, network, tx, rx)
                    assert channel._power(tx, rx) == channel._power(rx, tx)

    def test_fresh_twin_shares_memo_but_not_state(self):
        network = random_geometric_network(60, 10.0, rng=9)
        phy = SinrChannel(network)
        first = phy.fresh(SlottedCsmaMac(rng=3))
        result_a, _ = flood(network.graph, first)
        second = phy.fresh(SlottedCsmaMac(rng=3))
        assert second._powers is first._powers
        assert second.stats() == ChannelStats()
        assert second.mac is not first.mac
        result_b, _ = flood(network.graph, second)
        # A warm memo changes nothing: same receptions, same counters as
        # a channel built from scratch.
        cold = SinrChannel(network, mac=SlottedCsmaMac(rng=3))
        result_c, _ = flood(network.graph, cold)
        assert result_a == result_b == result_c
