"""Deterministic fault injection and the reliable broadcast layer.

The subsystem has three parts, meant to be used together:

* :mod:`repro.faults.schedule` — declarative, seed-deterministic fault
  schedules (crashes, link cuts, partitions, loss/duplication windows)
  serialisable as JSON and compiled onto the simulator;
* :mod:`repro.faults.injector` — the runtime overlay answering the
  medium's :class:`~repro.sim.medium.FaultHook` queries without ever
  mutating the unit-disk :class:`~repro.graph.adjacency.Graph`;
* :mod:`repro.faults.reliable` — ACK/retransmit broadcast over the SI/SD
  backbone plans, with a clusterhead-failure fallback that rebuilds the
  static backbone from scratch on the surviving topology.
"""

from repro.faults.injector import FaultInjector, assert_graph_untouched
from repro.faults.reliable import (
    BackboneFallback,
    ReliableAck,
    ReliableBroadcast,
    ReliableData,
    ReliableOutcome,
    reliable_flooding_plan,
    reliable_sd,
    reliable_si,
)
from repro.faults.schedule import (
    DuplicationWindow,
    FaultEvent,
    FaultSchedule,
    LinkDown,
    LinkUp,
    LossWindow,
    NodeDown,
    NodeUp,
    Partition,
    apply_schedule,
    random_schedule,
)

__all__ = [
    "BackboneFallback",
    "DuplicationWindow",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "LinkDown",
    "LinkUp",
    "LossWindow",
    "NodeDown",
    "NodeUp",
    "Partition",
    "ReliableAck",
    "ReliableBroadcast",
    "ReliableData",
    "ReliableOutcome",
    "apply_schedule",
    "assert_graph_untouched",
    "random_schedule",
    "reliable_flooding_plan",
    "reliable_sd",
    "reliable_si",
]
