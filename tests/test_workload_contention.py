"""Tests for the contention sweep driver (SINR + MAC under broadcast).

The sweep is deterministic and bit-identical across backends.  At the
paper's n=100 under SINR + CSMA, flooding's redundant relays destroy their
own delivery: the SI backbone must lead flooding by ``GAP_FLOOR``.
"""

import json

import pytest

from repro.graph.generators import random_geometric_network
from repro.io.results import fault_sweep_to_json
from repro.workload.contention import (
    CONTENTION_PROTOCOLS,
    run_contention_scenario,
    run_contention_sweep,
)

#: Minimum delivery-ratio lead of the SI backbone over flooding at n=100.
GAP_FLOOR = 0.02

SWEEP_KW = dict(losses=(0.0, 0.2), n=25, average_degree=8.0, trials=4)
AXES = ("delivery", "overhead", "latency", "collisions", "captures")


class TestScenario:
    def test_metric_keys_cover_all_protocols(self):
        network = random_geometric_network(25, 8.0, rng=1)
        metrics = run_contention_scenario(network, 0, rng=2)
        for proto in CONTENTION_PROTOCOLS:
            for axis in AXES:
                assert f"{axis}/{proto}" in metrics

    def test_deterministic(self):
        network = random_geometric_network(25, 8.0, rng=1)
        a = run_contention_scenario(network, 0, loss=0.1, rng=3)
        b = run_contention_scenario(network, 0, loss=0.1, rng=3)
        assert a == b

    def test_instant_mac_is_the_storm_worst_case(self):
        # Without a MAC, flooding's relays all air at once; CSMA must
        # recover delivery by desynchronising them.
        network = random_geometric_network(60, 10.0, rng=5)
        instant = run_contention_scenario(network, 0, mac="instant", rng=7)
        csma = run_contention_scenario(network, 0, mac="csma", rng=7)
        assert csma["delivery/flooding"] > instant["delivery/flooding"]

    def test_tdma_runs(self):
        network = random_geometric_network(25, 8.0, rng=1)
        metrics = run_contention_scenario(network, 0, mac="tdma", rng=2)
        assert 0.0 <= metrics["delivery/si"] <= 1.0


class TestSweep:
    def test_point_shape(self):
        points = run_contention_sweep(rng=0, **SWEEP_KW)
        assert [p.loss_probability for p in points] == [0.0, 0.2]
        for p in points:
            assert p.trials == 4
            for axis in AXES:
                assert set(getattr(p, axis)) == set(CONTENTION_PROTOCOLS)

    @pytest.mark.parametrize("backend,workers", [("process", 2)])
    def test_bit_identical_across_backends(self, backend, workers):
        serial = run_contention_sweep(rng=9, **SWEEP_KW)
        pooled = run_contention_sweep(rng=9, backend=backend,
                                      parallel=workers, **SWEEP_KW)
        assert pooled == serial

    def test_backbone_beats_flooding_at_paper_scale(self):
        # At n=100 under SINR + CSMA, flooding's redundancy destroys its
        # own delivery while the CDS backbones stay ahead: the SI backbone
        # must lead flooding by at least two points of delivery ratio.
        points = run_contention_sweep(
            losses=(0.0,), n=100, average_degree=8.0, trials=6, rng=42,
        )
        delivery = points[0].delivery
        assert delivery["flooding"] < delivery["si"]
        assert delivery["si"] - delivery["flooding"] >= GAP_FLOOR
        assert delivery["flooding"] < delivery["sd"]
        assert points[0].collisions["flooding"] > points[0].collisions["si"]

    def test_fault_sweep_under_interference(self):
        points = run_contention_sweep(
            losses=(0.0,), n=25, average_degree=8.0, trials=4,
            crash_fraction=0.2, rng=11,
        )
        # Crashed nodes cut delivery below the no-fault run of the same
        # seed (eligibility shrinks but interference stays).
        assert all(0.0 <= v <= 1.0 for v in points[0].delivery.values())

    def test_exports_via_fault_sweep_writer(self, tmp_path):
        # ContentionPoint is duck-compatible with the fault-sweep schema.
        points = run_contention_sweep(losses=(0.0,), n=25,
                                      average_degree=8.0, trials=2, rng=1)
        out = tmp_path / "contention.json"
        assert fault_sweep_to_json(points, out) == 1
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-fault-sweep"
        assert set(doc["points"][0]["delivery"]) == set(CONTENTION_PROTOCOLS)
