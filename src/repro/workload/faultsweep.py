"""Fault sweeps: delivery / overhead / recovery latency under faults.

The robustness sweep (:mod:`repro.workload.robustness`) varies only the
i.i.d. loss knob; this driver layers a seed-deterministic
:class:`~repro.faults.schedule.FaultSchedule` (crashes, link cuts) on top
and compares the plain backbone broadcasts against their reliable
(ACK/retransmit + backbone-fallback) variants from
:mod:`repro.faults.reliable`.

Every trial is paired twice over: all five protocols run over the same
sampled network, the same fault schedule, and the same channel-loss stream
(so the curves differ only by protocol), and all *loss points* of one sweep
share the same network samples through the cross-experiment scenario cache
(:mod:`repro.exec.scenarios`) — the loss axis is measured on identical
topologies, not resampled per point.  Trials are described by a picklable
:class:`~repro.exec.spec.TrialSpec`, so the sweep runs on any execution
backend; trial ``i`` always consumes spawned child stream ``i`` and the
results are bit-identical across backends and worker counts (see
:func:`repro.workload.trials.paired_trials`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast.sd_cds import broadcast_sd
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.exec.backends import BackendLike
from repro.exec.journal import RunJournal
from repro.exec.scenarios import connected_scenario
from repro.exec.spec import IndexedTrialFn, TrialSpec
from repro.faults.injector import FaultInjector
from repro.faults.reliable import reliable_sd, reliable_si
from repro.faults.schedule import FaultSchedule, apply_schedule, random_schedule
from repro.graph.adjacency import Graph
from repro.protocols.broadcast import DistributedSIBroadcast
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.sim.network import SimNetwork
from repro.types import NodeId
from repro.workload.trials import paired_trials

#: Protocol labels in reporting order.
PROTOCOLS = ("flooding", "si", "sd", "reliable-si", "reliable-sd")


@dataclass(frozen=True)
class FaultSweepPoint:
    """Mean per-protocol outcomes at one channel-loss probability.

    Attributes:
        loss_probability: The per-delivery loss of this point (faults from
            the schedule apply at every point).
        delivery: Protocol -> mean delivery ratio over *eligible* nodes
            (nodes reachable from the source once the schedule's final
            crash set is removed — nobody can deliver to a node with no
            surviving path).
        overhead: Protocol -> mean transmissions per node, ACKs included
            for the reliable variants (the price of the guarantee).
        latency: Protocol -> mean completion time (last first-reception
            among eligible nodes; retransmissions push this up, which is
            the recovery-latency axis).
        trials: Paired trials behind the means.
    """

    loss_probability: float
    delivery: Dict[str, float]
    overhead: Dict[str, float]
    latency: Dict[str, float]
    trials: int


def eligible_nodes(graph: Graph, source: NodeId,
                   crashed: Set[NodeId]) -> Set[NodeId]:
    """Nodes a broadcast from ``source`` can possibly still reach.

    BFS over ``graph`` minus ``crashed``: permanently-down nodes are out,
    and so is anything they cut off (no protocol can cross a dead cut
    vertex, so counting such nodes would measure topology, not protocol).
    """
    if source in crashed:
        return set()
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbours_view(v):
            if w not in crashed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def run_fault_sweep(
    *,
    losses: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    n: int = 40,
    average_degree: float = 8.0,
    trials: int = 8,
    crash_fraction: float = 0.1,
    horizon: float = 10.0,
    max_retries: int = 5,
    parallel: int = 1,
    backend: BackendLike = None,
    rng: RngLike = None,
    journal: Optional[RunJournal] = None,
) -> List[FaultSweepPoint]:
    """Sweep channel loss under a per-trial random fault schedule.

    Args:
        losses: Per-delivery drop probabilities to test.
        n: Network size.
        average_degree: Density of the sampled networks.
        trials: Paired trials per point (fixed count — the sequential
            stopping rule is deliberately bypassed so the sweep is
            bit-deterministic across backends and worker counts).
        crash_fraction: Fraction of nodes crashed by each trial's schedule
            (the source is protected; 0 disables crash faults).
        horizon: Crash times fall uniformly in ``[0, horizon)``.
        max_retries: Retry budget of the reliable variants.
        parallel: Worker count handed to
            :func:`~repro.workload.trials.paired_trials`.
        backend: Execution backend (``"serial"`` / ``"process"`` or an
            instance); results are identical whichever is chosen.
        rng: Seed or generator.
        journal: An open :class:`~repro.exec.journal.RunJournal`; each
            loss point writes its folded trials through a per-point view,
            so an interrupted sweep resumes bit-identically (completed
            points replay entirely from the journal, the interrupted
            point resumes mid-stream, later points run live).

    Returns:
        One :class:`FaultSweepPoint` per loss probability.
    """
    generator = ensure_rng(rng)
    # One scenario root for the whole sweep: every loss point sees the SAME
    # connected samples (drawn once, cached), so the loss axis is paired.
    scenario_root = derive_seed(generator)
    points: List[FaultSweepPoint] = []
    for loss in losses:
        point_rng = ensure_rng(derive_seed(generator))
        spec = TrialSpec.create(
            "repro.workload.faultsweep:make_fault_trial",
            loss=float(loss),
            n=int(n),
            average_degree=float(average_degree),
            crash_fraction=float(crash_fraction),
            horizon=float(horizon),
            max_retries=int(max_retries),
            scenario_root=int(scenario_root),
        )
        point = (journal.point(f"faultsweep:loss={loss:g}")
                 if journal is not None else None)
        outcome = paired_trials(
            spec=spec,
            min_samples=trials,
            max_samples=trials,
            rng=point_rng,
            parallel=parallel,
            backend=backend,
            journal=point,
        )
        delivery: Dict[str, float] = {}
        overhead: Dict[str, float] = {}
        latency: Dict[str, float] = {}
        for label, interval in outcome.estimates.items():
            axis, _, protocol = label.partition("/")
            {"delivery": delivery, "overhead": overhead,
             "latency": latency}[axis][protocol] = interval.mean
        points.append(FaultSweepPoint(
            loss_probability=loss,
            delivery=delivery,
            overhead=overhead,
            latency=latency,
            trials=outcome.trials,
        ))
    return points


def make_fault_trial(
    *,
    loss: float,
    n: int,
    average_degree: float,
    crash_fraction: float,
    horizon: float,
    max_retries: int,
    scenario_root: int,
) -> IndexedTrialFn:
    """Trial-spec factory: all protocols over one (network, schedule, seeds).

    The trial's network (and its memoized clustering) come from the scenario
    cache keyed by ``(scenario_root, n, average_degree, index)`` — shared by
    every loss point of the sweep.  Everything else (source, schedule,
    channel and fault streams) is drawn from the trial's own generator in a
    fixed order, so the trial is a pure function of ``(index, generator)``.
    """

    def trial(index: int, gen: np.random.Generator) -> Dict[str, float]:
        scenario = connected_scenario(
            n, average_degree, root=scenario_root, index=index
        )
        graph = scenario.network.graph
        source = int(gen.choice(graph.nodes()))
        schedule = random_schedule(
            graph,
            horizon=horizon,
            crash_fraction=crash_fraction,
            protect=(source,),
            rng=gen,
        )
        return run_fault_scenario(
            graph, source, schedule,
            loss=loss, rng=gen, max_retries=max_retries,
            structure=scenario.clustering,
        )

    return trial


def run_fault_scenario(
    graph: Graph,
    source: NodeId,
    schedule: FaultSchedule,
    *,
    loss: float = 0.0,
    rng: RngLike = None,
    max_retries: int = 5,
    structure: Optional[ClusterStructure] = None,
) -> Dict[str, float]:
    """Run every protocol once over one fixed ``(graph, schedule)`` pair.

    The paired building block of :func:`run_fault_sweep`, exposed for the
    ``repro faults --schedule`` CLI path: hand it a concrete
    :class:`~repro.faults.schedule.FaultSchedule` (e.g. loaded from JSON)
    and get the per-protocol metrics for exactly that scenario.

    Args:
        structure: Pre-computed clustering of ``graph``; pass the cached
            scenario clustering to avoid recomputing it per trial.  Computed
            here when ``None``.

    Returns:
        ``{"delivery/<protocol>": ..., "overhead/<protocol>": ...,
        "latency/<protocol>": ...}`` for every protocol in
        :data:`PROTOCOLS`.
    """
    rng = ensure_rng(rng)
    n = graph.num_nodes
    loss_seed = derive_seed(rng)  # same channel stream for every protocol
    fault_seed = derive_seed(rng)  # ... and the same window-draw stream
    if structure is None:
        structure = lowest_id_clustering(graph)
    static = build_static_backbone(structure)
    sd_plan = broadcast_sd(structure, source).result.forward_nodes
    eligible = eligible_nodes(graph, source, set(schedule.crashed_nodes()))
    denominator = max(1, len(eligible))

    metrics: Dict[str, float] = {}

    def faulted_network() -> tuple:
        net = SimNetwork(graph, loss_probability=loss, rng=loss_seed)
        injector = FaultInjector(net, rng=fault_seed)
        apply_schedule(schedule, injector)
        return net, injector

    def record(label: str, received, reception_time,
               transmissions: int) -> None:
        delivered = eligible & set(received)
        metrics[f"delivery/{label}"] = len(delivered) / denominator
        metrics[f"overhead/{label}"] = transmissions / n
        metrics[f"latency/{label}"] = float(
            max((reception_time[v] for v in delivered), default=0)
        )

    for label, relays in (("flooding", graph.nodes()),
                          ("si", static.nodes),
                          ("sd", sd_plan)):
        net, _ = faulted_network()
        protocol = DistributedSIBroadcast(net, relays)
        protocol.start(source)
        net.run_phase()
        result = protocol.result()
        record(label, result.received, result.reception_time,
               result.transmissions)

    net, injector = faulted_network()
    rel = reliable_si(network=net, structure=structure,
                      injector=injector, max_retries=max_retries)
    rel.start(source)
    net.run_phase()
    out = rel.outcome()
    record("reliable-si", out.result.received, out.result.reception_time,
           out.data_transmissions + out.ack_transmissions)

    net, injector = faulted_network()
    rel = reliable_sd(network=net, structure=structure, source=source,
                      injector=injector, max_retries=max_retries)
    rel.start(source)
    net.run_phase()
    out = rel.outcome()
    record("reliable-sd", out.result.received, out.result.reception_time,
           out.data_transmissions + out.ack_transmissions)

    return metrics


__all__ = [
    "PROTOCOLS",
    "FaultSweepPoint",
    "eligible_nodes",
    "make_fault_trial",
    "run_fault_scenario",
    "run_fault_sweep",
]
