"""Golden digests of the event engine, the SINR channel and the sampler.

The determinism tests elsewhere check that a run repeats itself and that
every backend agrees.  A change that reorders events, tie-breaks or set
iteration *consistently* passes both.  These pins hash the full output of
fixed runs instead (contention sweeps, a fault-sweep point, an SI
broadcast under SINR + CSMA and the network sampler), so any drift in an
event time, a trace entry, a channel counter or a neighbour-set iteration
order fails here.

Each digest is a SHA-256 over a JSON rendering whose floats are written
with ``repr`` precision, so a one-ulp change in any value moves it.  If a
change alters these values on purpose, re-pin them in the same commit and
say why in its message.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.backbone.static_backbone import build_static_backbone
from repro.channel.factory import make_channel, make_mac
from repro.cluster.lowest_id import lowest_id_clustering
from repro.graph.generators import random_geometric_network
from repro.protocols.broadcast import DistributedSIBroadcast
from repro.sim.network import SimNetwork
from repro.workload.contention import run_contention_sweep
from repro.workload.faultsweep import run_fault_sweep


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _points(points) -> list:
    return [vars(p) for p in points]


CONTENTION_PINS = {
    ("csma", 11, 0.0): "e5aa4caa5d3ae900",
    ("csma", 11, 0.1): "de176ab64a78dd37",
    ("csma", 12, 0.0): "914d9660273fe949",
    ("csma", 12, 0.1): "035080333c5f58fe",
    ("tdma", 11, 0.0): "ebec1aa19d765285",
    ("tdma", 11, 0.1): "90e251405a47f271",
    ("tdma", 12, 0.0): "19ff2bdf0eeafabc",
    ("tdma", 12, 0.1): "bba0e5525c26fdb8",
    ("instant", 11, 0.0): "8b885882ef37155d",
    ("instant", 11, 0.1): "945dc032c03749bf",
    ("instant", 12, 0.0): "a66d64ff08ee5bc0",
    ("instant", 12, 0.1): "590ba188e68cc326",
}


@pytest.mark.parametrize("mac,seed,crash", sorted(CONTENTION_PINS))
def test_contention_sweep_pinned(mac, seed, crash):
    points = run_contention_sweep(
        losses=(0.0, 0.2), n=100, trials=4, mac=mac,
        crash_fraction=crash, rng=seed,
    )
    assert _digest(_points(points)) == CONTENTION_PINS[(mac, seed, crash)]


def test_fault_sweep_point_pinned():
    points = run_fault_sweep(losses=(0.2,), n=40, trials=6, rng=5)
    assert _digest(_points(points)) == "eef48136a9bb5810"


def test_si_broadcast_under_sinr_csma_pinned():
    network = random_geometric_network(100, 8.0, rng=21)
    backbone = build_static_backbone(lowest_id_clustering(network.graph))
    channel = make_channel("sinr", network, mac=make_mac("csma", rng=22))
    net = SimNetwork(network.graph, channel=channel)
    protocol = DistributedSIBroadcast(net, backbone.nodes)
    protocol.start(0)
    net.run_phase()
    result = protocol.result()
    trace = [(e.time, e.sender, repr(e.message)) for e in net.trace.entries]
    times = sorted(result.reception_time.items())
    assert len(trace) == result.transmissions
    assert _digest(trace) == "1f9db23543986f8c"
    assert _digest(times) == "60867ee0221cca37"
    assert result.channel == {
        "aired": 50, "collisions": 70, "captures": 199,
        "half_duplex_drops": 0, "mac_deferrals": 37, "mac_drops": 0,
    }
    assert net.sim.events_processed == 360


def _neighbour_orders(network) -> list:
    adj = network.graph
    return [[v, list(adj.neighbours_view(v))] for v in adj]


GENERATOR_PINS = {
    # (n, degree, seed, shuffle_ids, torus)
    (30, 6.0, 1, False, False): "8943b82efe6e03df",
    (30, 6.0, 2, True, False): "91f63afb262a8bf0",
    (30, 6.0, 3, False, True): "fcc20c0bafe7fab0",
    (100, 6.0, 4, False, False): "e8b84907c13d9e9e",
    (100, 6.0, 5, True, False): "b22d91fe6640d781",
    (100, 18.0, 6, False, False): "36b8fcdf423a0980",
    (100, 6.0, 7, True, True): "f5f4dcc5a9b2c13d",
    (400, 10.0, 8, True, False): "7cd13f7b92f18420",
}


@pytest.mark.parametrize("key", sorted(GENERATOR_PINS))
def test_random_geometric_network_pinned(key):
    n, degree, seed, shuffle_ids, torus = key
    network = random_geometric_network(
        n, degree, rng=seed, shuffle_ids=shuffle_ids, torus=torus
    )
    pinned = {
        "edges": network.graph.edges(),
        "order": _neighbour_orders(network),
        "positions": sorted(network.positions.items()),
        "radius": network.radius,
    }
    assert _digest(pinned) == GENERATOR_PINS[key]
