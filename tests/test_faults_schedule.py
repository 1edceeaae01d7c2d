"""Tests for declarative fault schedules."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.faults.schedule import (
    DuplicationWindow,
    FaultSchedule,
    LinkDown,
    LinkUp,
    LossWindow,
    NodeDown,
    NodeUp,
    Partition,
    random_schedule,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import random_geometric_network


def sample_schedule() -> FaultSchedule:
    return FaultSchedule([
        NodeDown(time=2.0, node=3),
        NodeUp(time=6.0, node=3),
        LinkDown(time=1.0, u=0, v=1),
        LinkUp(time=4.0, u=0, v=1),
        Partition(time=3.0, nodes=frozenset({4, 5}), duration=2.0),
        Partition(time=9.0, nodes=frozenset({6})),
        LossWindow(time=0.5, probability=0.4, duration=3.0),
        DuplicationWindow(time=5.0, probability=0.2, duration=1.0),
    ])


class TestValidation:
    def test_events_sorted_by_time(self):
        sched = sample_schedule()
        times = [e.time for e in sched]
        assert times == sorted(times)

    def test_stable_order_at_equal_times(self):
        a = NodeDown(time=1.0, node=1)
        b = NodeDown(time=1.0, node=2)
        assert FaultSchedule([a, b]).events == (a, b)
        assert FaultSchedule([b, a]).events == (b, a)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="time"):
            FaultSchedule([NodeDown(time=-1.0, node=0)])

    def test_bad_window_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSchedule([LossWindow(time=0.0, probability=1.5,
                                      duration=1.0)])

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration"):
            FaultSchedule([LossWindow(time=0.0, probability=0.5,
                                      duration=0.0)])
        with pytest.raises(ConfigurationError, match="duration"):
            FaultSchedule([Partition(time=0.0, nodes=frozenset({1}),
                                     duration=-1.0)])

    def test_self_loop_link_rejected(self):
        with pytest.raises(Exception):
            FaultSchedule([LinkDown(time=0.0, u=2, v=2)])

    def test_validate_against_unknown_node(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ConfigurationError, match="unknown node 9"):
            FaultSchedule([NodeDown(time=0.0, node=9)]).validate_against(g)


class TestDerived:
    def test_horizon_includes_window_ends(self):
        sched = sample_schedule()
        # The infinite partition fires (a state change) at t=9; its never-
        # arriving heal adds nothing beyond that.
        assert sched.horizon == 9.0
        without_inf = FaultSchedule(
            [e for e in sched
             if not (isinstance(e, Partition) and math.isinf(e.duration))]
        )
        # Finite ends count: NodeUp at 6 and the duplication window end 5+1
        # outlast the partition heal at 3+2 and the loss window end 0.5+3.
        assert without_inf.horizon == 6.0

    def test_crashed_nodes_tracks_recovery(self):
        sched = FaultSchedule([
            NodeDown(time=1.0, node=1),
            NodeDown(time=2.0, node=2),
            NodeUp(time=3.0, node=1),
        ])
        assert sched.crashed_nodes() == frozenset({2})

    def test_empty_schedule(self):
        sched = FaultSchedule()
        assert len(sched) == 0
        assert sched.horizon == 0.0
        assert sched.crashed_nodes() == frozenset()


def sample_spec() -> dict:
    """``sample_schedule`` as a JSON document."""
    return {"format": "repro-fault-schedule", "version": 1, "events": [
        {"kind": "node-down", "time": 2.0, "node": 3},
        {"kind": "node-up", "time": 6.0, "node": 3},
        {"kind": "link-down", "time": 1.0, "u": 0, "v": 1},
        {"kind": "link-up", "time": 4.0, "u": 0, "v": 1},
        {"kind": "partition", "time": 3.0, "nodes": [4, 5], "duration": 2.0},
        {"kind": "partition", "time": 9.0, "nodes": [6], "duration": None},
        {"kind": "loss-window", "time": 0.5, "probability": 0.4,
         "duration": 3.0},
        {"kind": "duplication-window", "time": 5.0, "probability": 0.2,
         "duration": 1.0},
    ]}


class TestSpecRoundTrip:
    def test_roundtrip_through_json(self):
        doc = json.loads(json.dumps(sample_spec()))
        assert FaultSchedule.from_spec(doc) == sample_schedule()

    def test_infinite_partition_serialises_as_null(self):
        spec = {"format": "repro-fault-schedule", "version": 1,
                "events": [{"kind": "partition", "time": 0.0, "nodes": [1],
                            "duration": None}]}
        restored = FaultSchedule.from_spec(spec)
        assert restored == FaultSchedule(
            [Partition(time=0.0, nodes=frozenset({1}))])
        assert math.isinf(restored.events[0].duration)

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="not a repro"):
            FaultSchedule.from_spec({"format": "other"})

    def test_wrong_version_rejected(self):
        spec = sample_spec()
        spec["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            FaultSchedule.from_spec(spec)

    def test_malformed_event_rejected(self):
        spec = {"format": "repro-fault-schedule", "version": 1,
                "events": [{"kind": "node-down", "time": 0.0}]}
        with pytest.raises(ConfigurationError, match="malformed"):
            FaultSchedule.from_spec(spec)

    def test_unknown_kind_rejected(self):
        spec = {"format": "repro-fault-schedule", "version": 1,
                "events": [{"kind": "meteor-strike", "time": 0.0}]}
        with pytest.raises(ConfigurationError, match="malformed"):
            FaultSchedule.from_spec(spec)


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        g = random_geometric_network(30, 8.0, rng=0).graph
        kwargs = dict(crash_fraction=0.2, recovery_fraction=0.5,
                      link_flap_fraction=0.1, loss_windows=2,
                      duplication_windows=1)
        assert random_schedule(g, rng=7, **kwargs) == \
            random_schedule(g, rng=7, **kwargs)
        assert random_schedule(g, rng=7, **kwargs) != \
            random_schedule(g, rng=8, **kwargs)

    def test_protected_nodes_never_crash(self):
        g = random_geometric_network(30, 8.0, rng=0).graph
        protect = set(g.nodes()[:10])
        sched = random_schedule(g, crash_fraction=0.5, protect=protect,
                                rng=1)
        crashed = {e.node for e in sched if isinstance(e, NodeDown)}
        assert crashed and not (crashed & protect)

    def test_crash_fraction_out_of_range(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(ConfigurationError, match="crash_fraction"):
            random_schedule(g, crash_fraction=1.5)

    def test_references_valid_against_source_graph(self):
        g = random_geometric_network(25, 6.0, rng=2).graph
        sched = random_schedule(g, crash_fraction=0.3,
                                link_flap_fraction=0.2, rng=3)
        sched.validate_against(g)  # must not raise
