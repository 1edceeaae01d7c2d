"""Contention sweeps: broadcast delivery under SINR interference and a MAC.

The fault sweep (:mod:`repro.workload.faultsweep`) degrades the medium with
i.i.d. losses and scheduled faults; this driver swaps the perfect-PHY
assumption itself.  Every protocol run carries a
:class:`~repro.channel.sinr.SinrChannel` (log-distance pathloss,
SINR-threshold reception, exact interference accounting) and a contention
MAC (:class:`~repro.channel.mac.SlottedCsmaMac` or
:class:`~repro.channel.mac.TdmaMac`), so redundant relaying now has a
*cost*: flooding's simultaneous retransmissions raise the interference sum
at every receiver and destroy its own delivery, while the sparse CDS
backbones mostly clear the threshold.  That is the broadcast-storm argument
of the paper's introduction, measured rather than asserted.

The pairing discipline matches the fault sweep: all protocols of a trial
share one sampled network, one source, one fault schedule and one loss
stream; all loss points share their network samples through the scenario
cache; trials are :class:`~repro.exec.spec.TrialSpec`-described and consume
spawned stream ``i`` for trial ``i``, so results are bit-identical across
execution backends and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast.sd_cds import broadcast_sd
from repro.channel.factory import make_channel, make_mac
from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.coverage.policy import compute_all_coverage_sets
from repro.exec.backends import BackendLike
from repro.exec.journal import RunJournal
from repro.exec.scenarios import connected_scenario
from repro.exec.spec import IndexedTrialFn, TrialSpec
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, apply_schedule, random_schedule
from repro.graph.network import Network
from repro.protocols.broadcast import DistributedSIBroadcast
from repro.rng import RngLike, derive_seed, ensure_rng
from repro.sim.network import SimNetwork
from repro.types import NodeId
from repro.workload.faultsweep import eligible_nodes
from repro.workload.trials import paired_trials

#: Protocol labels in reporting order (the plain broadcasts; the reliable
#: variants' ACK traffic is a separate study — see docs/channel.md).
CONTENTION_PROTOCOLS = ("flooding", "si", "sd")


@dataclass(frozen=True)
class ContentionPoint:
    """Mean per-protocol outcomes at one channel-loss probability.

    Attribute-compatible with
    :class:`~repro.workload.faultsweep.FaultSweepPoint` (the duck-typed
    :func:`~repro.io.results.fault_sweep_to_json` writer accepts either),
    plus the PHY/MAC counters that explain the delivery numbers.

    Attributes:
        loss_probability: The i.i.d. per-delivery loss of this point
            (interference and MAC contention apply at every point).
        delivery: Protocol -> mean delivery ratio over eligible nodes.
        overhead: Protocol -> mean transmissions per node.
        latency: Protocol -> mean completion time (MAC deferrals push
            this up — contention trades latency for delivery).
        collisions: Protocol -> mean SINR-failed copies per trial.
        captures: Protocol -> mean copies received *despite* interference.
        trials: Paired trials behind the means.
    """

    loss_probability: float
    delivery: Dict[str, float]
    overhead: Dict[str, float]
    latency: Dict[str, float]
    collisions: Dict[str, float]
    captures: Dict[str, float]
    trials: int


def run_contention_sweep(
    *,
    losses: Sequence[float] = (0.0,),
    n: int = 100,
    average_degree: float = 8.0,
    trials: int = 8,
    mac: str = "csma",
    alpha: float = 3.0,
    threshold: float = 4.0,
    noise_margin: float = 2.0,
    frame: int = 8,
    crash_fraction: float = 0.0,
    horizon: float = 10.0,
    parallel: int = 1,
    backend: BackendLike = None,
    rng: RngLike = None,
    journal: Optional[RunJournal] = None,
) -> List[ContentionPoint]:
    """Sweep channel loss with an SINR PHY and a contention MAC attached.

    Args:
        losses: I.i.d. per-delivery drop probabilities to test (``(0.0,)``
            isolates pure interference effects).
        n: Network size.
        average_degree: Density of the sampled networks.
        trials: Paired trials per point (fixed count, bit-deterministic
            across backends — see :func:`~repro.workload.trials.paired_trials`).
        mac: ``"csma"``, ``"tdma"`` or ``"instant"`` (no MAC: every relay
            airs the moment the protocol sends — the storm worst case).
        alpha: Pathloss exponent of the SINR model.
        threshold: Required SINR (linear).
        noise_margin: Clear-channel SNR headroom of a max-range link.
        frame: TDMA frame length (ignored by the other MACs).
        crash_fraction: Fraction of nodes crashed by a per-trial random
            fault schedule (0 disables faults — the fault sweep under
            interference from docs/channel.md sets this > 0).
        horizon: Crash times fall uniformly in ``[0, horizon)``.
        parallel: Worker count handed to ``paired_trials``.
        backend: Execution backend; results are identical whichever runs.
        rng: Seed or generator.
        journal: An open :class:`~repro.exec.journal.RunJournal` for
            crash-safe resume, one point view per loss value.

    Returns:
        One :class:`ContentionPoint` per loss probability.
    """
    generator = ensure_rng(rng)
    scenario_root = derive_seed(generator)
    points: List[ContentionPoint] = []
    for loss in losses:
        point_rng = ensure_rng(derive_seed(generator))
        spec = TrialSpec.create(
            "repro.workload.contention:make_contention_trial",
            loss=float(loss),
            n=int(n),
            average_degree=float(average_degree),
            mac=str(mac),
            alpha=float(alpha),
            threshold=float(threshold),
            noise_margin=float(noise_margin),
            frame=int(frame),
            crash_fraction=float(crash_fraction),
            horizon=float(horizon),
            scenario_root=int(scenario_root),
        )
        point = (journal.point(f"contention:loss={loss:g}")
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
        axes: Dict[str, Dict[str, float]] = {
            "delivery": {}, "overhead": {}, "latency": {},
            "collisions": {}, "captures": {},
        }
        for label, interval in outcome.estimates.items():
            axis, _, protocol = label.partition("/")
            axes[axis][protocol] = interval.mean
        points.append(ContentionPoint(
            loss_probability=loss,
            delivery=axes["delivery"],
            overhead=axes["overhead"],
            latency=axes["latency"],
            collisions=axes["collisions"],
            captures=axes["captures"],
            trials=outcome.trials,
        ))
    return points


def make_contention_trial(
    *,
    loss: float,
    n: int,
    average_degree: float,
    mac: str,
    alpha: float,
    threshold: float,
    noise_margin: float,
    frame: int,
    crash_fraction: float,
    horizon: float,
    scenario_root: int,
) -> IndexedTrialFn:
    """Trial-spec factory: all protocols over one (network, schedule, seeds).

    The network and its memoized clustering come from the scenario cache
    keyed by ``(scenario_root, n, average_degree, index)``; the source,
    fault schedule and per-protocol seeds are drawn from the trial's own
    generator in a fixed order, so the trial is a pure function of
    ``(index, generator)`` on every backend.
    """

    def trial(index: int, gen: np.random.Generator) -> Dict[str, float]:
        scenario = connected_scenario(
            n, average_degree, root=scenario_root, index=index
        )
        network = scenario.network
        source = int(gen.choice(network.graph.nodes()))
        schedule: Optional[FaultSchedule] = None
        if crash_fraction > 0.0:
            schedule = random_schedule(
                network.graph,
                horizon=horizon,
                crash_fraction=crash_fraction,
                protect=(source,),
                rng=gen,
            )
        return run_contention_scenario(
            network, source,
            mac=mac, alpha=alpha, threshold=threshold,
            noise_margin=noise_margin, frame=frame,
            loss=loss, schedule=schedule, rng=gen,
            structure=scenario.clustering,
        )

    return trial


def run_contention_scenario(
    network: Network,
    source: NodeId,
    *,
    mac: str = "csma",
    alpha: float = 3.0,
    threshold: float = 4.0,
    noise_margin: float = 2.0,
    frame: int = 8,
    loss: float = 0.0,
    schedule: Optional[FaultSchedule] = None,
    rng: RngLike = None,
    structure: Optional[ClusterStructure] = None,
) -> Dict[str, float]:
    """Run every protocol once over one network under interference.

    The paired building block of :func:`run_contention_sweep`: all
    protocols see the same loss stream, the same fault-window stream and
    the same MAC backoff stream (each protocol run gets a *fresh* channel
    built from the same seeds, so the comparison isolates the relay set).

    Args:
        network: The sampled geometric network (positions calibrate the
            SINR model).
        source: Broadcast origin.
        mac: ``"csma"``, ``"tdma"`` or ``"instant"``.
        alpha / threshold / noise_margin: SINR model parameters.
        frame: TDMA frame length.
        loss: I.i.d. per-delivery loss, upstream of the SINR decision.
        schedule: Optional fault schedule (crashes gate before the channel
            — see the composition contract in :mod:`repro.sim.medium`).
        rng: Seed or generator.
        structure: Pre-computed clustering (cached scenario clustering);
            computed here when ``None``.

    Returns:
        ``{"<axis>/<protocol>": value}`` for the axes delivery, overhead,
        latency, collisions and captures over :data:`CONTENTION_PROTOCOLS`.
    """
    rng = ensure_rng(rng)
    graph = network.graph
    n = graph.num_nodes
    loss_seed = derive_seed(rng)   # same channel-loss stream per protocol
    fault_seed = derive_seed(rng)  # ... same fault-window stream
    mac_seed = derive_seed(rng)    # ... same backoff stream
    if structure is None:
        structure = lowest_id_clustering(graph)
    # SI and SD run on the same 2.5-hop coverage sets: compute them once.
    coverage = compute_all_coverage_sets(structure)
    static = build_static_backbone(structure, coverage_sets=coverage)
    sd_plan = broadcast_sd(
        structure, source, coverage_sets=coverage
    ).result.forward_nodes
    crashed = set(schedule.crashed_nodes()) if schedule is not None else set()
    eligible = eligible_nodes(graph, source, crashed)
    denominator = max(1, len(eligible))

    # Fresh twins of one PHY share its memo: each power once per trial.
    phy = make_channel("sinr", network, alpha=alpha, threshold=threshold,
                       noise_margin=noise_margin)
    metrics: Dict[str, float] = {}
    for label, relays in (("flooding", graph.nodes()),
                          ("si", static.nodes),
                          ("sd", sd_plan)):
        channel = phy.fresh(make_mac(mac, rng=mac_seed, frame=frame))
        net = SimNetwork(graph, loss_probability=loss, rng=loss_seed,
                         channel=channel)
        if schedule is not None:
            injector = FaultInjector(net, rng=fault_seed)
            apply_schedule(schedule, injector)
        protocol = DistributedSIBroadcast(net, relays)
        protocol.start(source)
        net.run_phase()
        result = protocol.result()
        delivered = eligible & set(result.received)
        counters = result.channel or {}
        metrics[f"delivery/{label}"] = len(delivered) / denominator
        metrics[f"overhead/{label}"] = result.transmissions / n
        metrics[f"latency/{label}"] = float(
            max((result.reception_time[v] for v in delivered), default=0)
        )
        metrics[f"collisions/{label}"] = float(counters.get("collisions", 0))
        metrics[f"captures/{label}"] = float(counters.get("captures", 0))
    return metrics


__all__ = [
    "CONTENTION_PROTOCOLS",
    "ContentionPoint",
    "make_contention_trial",
    "run_contention_scenario",
    "run_contention_sweep",
]
