"""Robustness experiments: delivery under imperfect channels (extension).

The paper assumes collisions are handled below the network layer; a natural
follow-up question for anyone deploying these backbones is how each protocol
degrades when deliveries are lost anyway.  The distributed SI/SD protocols
run unchanged on a lossy :class:`~repro.sim.medium.WirelessMedium`; this
module sweeps the loss probability and reports delivery ratios.

Redundancy is protective: blind flooding (every node relays) tolerates loss
best, the lean dynamic backbone worst — quantifying the robustness price of
the paper's efficiency, and matching its remark that passive clustering's
aggressive suppression "suffers poor delivery rate" (measured here too, on
an ideal channel, where it is the only protocol below 100%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.broadcast.passive_clustering import broadcast_passive_clustering
from repro.exec.scenarios import connected_scenario
from repro.protocols.broadcast import DistributedSDBroadcast, DistributedSIBroadcast
from repro.protocols.runner import run_distributed_build
from repro.rng import RngLike, derive_seed, ensure_rng


@dataclass(frozen=True)
class RobustnessPoint:
    """Mean delivery ratios at one loss probability."""

    loss_probability: float
    delivery: Dict[str, float]
    forwards: Dict[str, float]


def run_robustness_sweep(
    *,
    losses: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    n: int = 60,
    average_degree: float = 10.0,
    trials: int = 20,
    rng: RngLike = None,
) -> List[RobustnessPoint]:
    """Sweep channel loss and measure per-protocol delivery ratios.

    Args:
        losses: Per-delivery drop probabilities to test.
        n: Network size.
        average_degree: Density of the sampled networks.
        trials: Paired trials per loss point.
        rng: Seed or generator.

    Returns:
        One :class:`RobustnessPoint` per loss probability.
    """
    generator = ensure_rng(rng)
    points: List[RobustnessPoint] = []
    # One fixed scenario batch reused across loss points (paired design);
    # the samples come from the cross-experiment scenario cache, so other
    # sweeps over the same derived root reuse them too.
    scenario_root = derive_seed(generator)
    batch = []
    for t in range(trials):
        scenario = connected_scenario(
            n, average_degree, root=scenario_root, index=t
        )
        source = int(generator.choice(scenario.network.graph.nodes()))
        batch.append((scenario, source))
    for loss in losses:
        delivery: Dict[str, List[float]] = {}
        forwards: Dict[str, List[float]] = {}

        def record(label: str, result) -> None:
            delivered = sum(
                1 for v in result.received
            ) / n
            delivery.setdefault(label, []).append(delivered)
            forwards.setdefault(label, []).append(result.num_forward_nodes)

        for scenario, source in batch:
            graph = scenario.network.graph
            loss_rng = ensure_rng(int(generator.integers(0, 2**32)))
            # Control traffic (HELLO/clustering/coverage) runs on an ideal
            # channel — the question is data-plane robustness, and mixing
            # in control losses would conflate two failure modes.  The
            # medium turns lossy for the data phase only.
            build = run_distributed_build(graph, include_gateway_phase=False)
            sim_net, coverage = build.network, build.coverage
            sim_net.medium.set_loss(loss, loss_rng)
            # Flooding: SI broadcast with the full node set as the CDS.
            flood = DistributedSIBroadcast(sim_net, graph.nodes())
            flood.start(source)
            sim_net.run_phase()
            record("flooding", flood.result())
            # Static backbone (centrally, on the scenario's cached
            # clustering; membership only).
            from repro.backbone.static_backbone import build_static_backbone

            static = build_static_backbone(scenario.clustering)
            si = DistributedSIBroadcast(sim_net, static.nodes)
            si.start(source)
            sim_net.run_phase()
            record("static", si.result())
            # Dynamic backbone on the same lossy medium.
            sd = DistributedSDBroadcast(sim_net, coverage)
            sd.start(source)
            sim_net.run_phase()
            record("dynamic", sd.result())
            # Passive clustering runs its own (ideal-channel) flood; it is
            # included as the paper's delivery-rate cautionary tale.
            if loss == 0.0:
                record("passive", broadcast_passive_clustering(
                    graph, source
                ).result)
        points.append(
            RobustnessPoint(
                loss_probability=loss,
                delivery={
                    k: float(np.mean(v)) for k, v in delivery.items()
                },
                forwards={
                    k: float(np.mean(v)) for k, v in forwards.items()
                },
            )
        )
    return points
