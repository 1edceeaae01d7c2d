"""Phase orchestration: build the backbone with the distributed protocols.

Runs HELLO → clustering → coverage exchange → gateway designation on a
fresh :class:`~repro.sim.network.SimNetwork`, collecting per-phase message
statistics.  The output mirrors the centralised
:func:`repro.backbone.static_backbone.build_static_backbone` result — and the
equivalence tests assert it is *identical*, which is the strongest evidence
the message-level protocol really computes what the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.backbone.static_backbone import Backbone
from repro.broadcast.result import BroadcastResult
from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet
from repro.graph.adjacency import Graph
from repro.protocols.broadcast import DistributedSDBroadcast, DistributedSIBroadcast
from repro.protocols.clustering import DistributedLowestIdClustering
from repro.protocols.coverage import CoverageExchangeProtocol
from repro.protocols.gateway import GatewayDesignationProtocol
from repro.protocols.hello import HelloProtocol
from repro.sim.network import SimNetwork
from repro.types import CoveragePolicy, NodeId, PruningLevel


@dataclass(frozen=True, slots=True)
class PhaseStats:
    """Message statistics of one protocol phase."""

    name: str
    messages: int
    volume: int
    duration: float  #: sim-time from phase start to last event


@dataclass(frozen=True)
class DistributedBuildResult:
    """Everything the distributed construction produced.

    Attributes:
        network: The simulated network (reusable for broadcast phases).
        structure: The cluster structure the declarations realised.
        coverage: The completed coverage-exchange protocol (selection input
            for SD broadcasts).
        backbone: The static backbone assembled exactly like the centralised
            :class:`~repro.backbone.static_backbone.Backbone`.
        phases: Per-phase message statistics, in execution order.
    """

    network: SimNetwork
    structure: ClusterStructure
    coverage: CoverageExchangeProtocol
    backbone: Backbone
    phases: Tuple[PhaseStats, ...]

    @property
    def total_messages(self) -> int:
        """Messages across all construction phases (the O(n) claim)."""
        return sum(p.messages for p in self.phases)

    @property
    def total_volume(self) -> int:
        """Message volume across all phases (maintenance-cost proxy)."""
        return sum(p.volume for p in self.phases)

    def coverage_sets(self) -> Dict[NodeId, CoverageSet]:
        """The coverage sets heads gathered on the air."""
        return self.coverage.all_coverage_sets()


def _phase_delta(network: SimNetwork, name: str, start_msgs: int,
                 start_volume: int, start_time: float) -> PhaseStats:
    trace = network.trace
    return PhaseStats(
        name=name,
        messages=trace.total_messages - start_msgs,
        volume=trace.total_volume - start_volume,
        duration=network.sim.now - start_time,
    )


def run_distributed_build(
    graph: Graph,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    *,
    include_gateway_phase: bool = True,
) -> DistributedBuildResult:
    """Run the full distributed construction on ``graph``.

    Args:
        graph: The network topology.
        policy: Coverage definition for the CH_HOP1/CH_HOP2 exchange.
        include_gateway_phase: The dynamic backbone skips GATEWAY messages
            (gateways ride on data packets); pass ``False`` to measure the
            dynamic construction's message cost.

    Returns:
        The :class:`DistributedBuildResult`.
    """
    network = SimNetwork(graph)
    phases = []

    def run_phase(name: str, protocol) -> None:
        start_msgs = network.trace.total_messages
        start_volume = network.trace.total_volume
        start_time = network.sim.now
        protocol.start()
        network.run_phase()
        phases.append(
            _phase_delta(network, name, start_msgs, start_volume, start_time)
        )

    hello = HelloProtocol(network)
    run_phase("hello", hello)
    clustering = DistributedLowestIdClustering(network)
    run_phase("clustering", clustering)
    structure = clustering.result()
    coverage = CoverageExchangeProtocol(network, policy)
    run_phase("coverage", coverage)

    coverage_sets = coverage.all_coverage_sets()
    if include_gateway_phase:
        gateway = GatewayDesignationProtocol(network, coverage)
        run_phase("gateway", gateway)
        gateway.check_designation_complete()
        selections = dict(gateway.selections)
    else:
        from repro.backbone.gateway_selection import select_gateways

        selections = {h: select_gateways(c) for h, c in coverage_sets.items()}

    backbone = Backbone(
        structure=structure,
        policy=policy,
        coverage_sets=coverage_sets,
        selections=selections,
        algorithm=f"distributed-static-backbone[{policy.label}]",
    )
    return DistributedBuildResult(
        network=network,
        structure=structure,
        coverage=coverage,
        backbone=backbone,
        phases=tuple(phases),
    )


def run_distributed_si_broadcast(
    build: DistributedBuildResult, source: NodeId
) -> Tuple[BroadcastResult, PhaseStats]:
    """Broadcast over the distributed static backbone; returns result + stats."""
    network = build.network
    start_msgs = network.trace.total_messages
    start_volume = network.trace.total_volume
    start_time = network.sim.now
    protocol = DistributedSIBroadcast(network, build.backbone.nodes)
    protocol.start(source)
    network.run_phase()
    stats = _phase_delta(network, "si-broadcast", start_msgs, start_volume,
                         start_time)
    return protocol.result(), stats


def run_distributed_sd_broadcast(
    build: DistributedBuildResult,
    source: NodeId,
    pruning: PruningLevel = PruningLevel.FULL,
) -> Tuple[BroadcastResult, PhaseStats]:
    """Dynamic-backbone broadcast on the simulated network; result + stats."""
    network = build.network
    start_msgs = network.trace.total_messages
    start_volume = network.trace.total_volume
    start_time = network.sim.now
    protocol = DistributedSDBroadcast(network, build.coverage, pruning)
    protocol.start(source)
    network.run_phase()
    stats = _phase_delta(network, "sd-broadcast", start_msgs, start_volume,
                         start_time)
    return protocol.result(), stats
