"""Route-stretch study: backbone routes vs true shortest paths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.backbone.static_backbone import build_static_backbone
from repro.cluster.lowest_id import lowest_id_clustering
from repro.graph.generators import random_geometric_network
from repro.graph.traversal import bfs_distances
from repro.routing.cluster_routing import backbone_route
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True, slots=True)
class RouteStretchReport:
    """Stretch statistics over sampled source/target pairs.

    Attributes:
        pairs: Number of routed pairs.
        mean_stretch: Mean (route hops / shortest-path hops).
        max_stretch: Worst observed stretch.
        mean_backbone_fraction: Mean fraction of route-interior nodes that
            are backbone members (1.0 by construction; asserted in tests).
    """

    pairs: int
    mean_stretch: float
    max_stretch: float
    mean_backbone_fraction: float


def route_stretch_study(
    *,
    n: int = 60,
    average_degree: float = 10.0,
    networks: int = 8,
    pairs_per_network: int = 20,
    rng: RngLike = None,
) -> RouteStretchReport:
    """Sample networks and pairs; measure backbone-route stretch.

    Args:
        n: Nodes per network.
        average_degree: Density of the samples.
        networks: Number of network samples.
        pairs_per_network: Routed (source, target) pairs per sample.
        rng: Seed or generator.

    Returns:
        The aggregated :class:`RouteStretchReport`.
    """
    generator = ensure_rng(rng)
    stretches: List[float] = []
    fractions: List[float] = []
    for _ in range(networks):
        net = random_geometric_network(n, average_degree, rng=generator)
        backbone = build_static_backbone(lowest_id_clustering(net.graph))
        nodes = net.graph.nodes()
        for _ in range(pairs_per_network):
            s, t = (int(x) for x in generator.choice(nodes, 2, replace=False))
            route = backbone_route(backbone, s, t)
            optimal = bfs_distances(net.graph, s)[t]
            stretches.append((len(route) - 1) / optimal)
            interior = route[1:-1]
            if interior:
                fractions.append(
                    sum(1 for v in interior if v in backbone.nodes)
                    / len(interior)
                )
    return RouteStretchReport(
        pairs=len(stretches),
        mean_stretch=float(np.mean(stretches)),
        max_stretch=float(np.max(stretches)),
        mean_backbone_fraction=float(np.mean(fractions)) if fractions else 1.0,
    )
