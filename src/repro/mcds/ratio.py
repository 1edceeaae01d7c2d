"""Empirical approximation-ratio study.

The paper's analysis (Section 4) claims both backbones have a *constant*
approximation ratio to the MCDS.  On small connected geometric samples we
can compute the exact MCDS and measure the realised ratios of the static
backbone, the dynamic backbone and MO_CDS directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.backbone.mo_cds import build_mo_cds
from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast.sd_cds import broadcast_sd
from repro.cluster.lowest_id import lowest_id_clustering
from repro.graph.generators import random_geometric_network
from repro.mcds.exact import exact_mcds
from repro.rng import RngLike, ensure_rng
from repro.types import CoveragePolicy, PruningLevel


@dataclass(frozen=True, slots=True)
class RatioSample:
    """Measured sizes for one sampled network."""

    n: int
    mcds_size: int
    static_25: int
    static_3: int
    dynamic_25: int
    mo_cds: int

    @property
    def static_ratio(self) -> float:
        """Static backbone (2.5-hop) size over the exact MCDS size."""
        return self.static_25 / self.mcds_size

    @property
    def dynamic_ratio(self) -> float:
        """Dynamic forward-node count over the exact MCDS size."""
        return self.dynamic_25 / self.mcds_size

    @property
    def mo_ratio(self) -> float:
        """MO_CDS size over the exact MCDS size."""
        return self.mo_cds / self.mcds_size


def approximation_ratio_study(
    *,
    samples: int = 20,
    n: int = 14,
    average_degree: float = 5.0,
    rng: RngLike = None,
    max_exact_nodes: int = 24,
) -> List[RatioSample]:
    """Sample networks, solve the exact MCDS, and measure realised ratios.

    Args:
        samples: Number of networks to measure.
        n: Nodes per network (keep small — exact MCDS is exponential).
        average_degree: Target density of the samples.
        rng: Seed or generator.
        max_exact_nodes: Safety limit forwarded to the exact solver.

    Returns:
        One :class:`RatioSample` per network.
    """
    generator = ensure_rng(rng)
    out: List[RatioSample] = []
    for _ in range(samples):
        net = random_geometric_network(n, average_degree, rng=generator)
        clustering = lowest_id_clustering(net.graph)
        mcds = exact_mcds(net.graph, max_nodes=max_exact_nodes)
        source = int(generator.choice(net.graph.nodes()))
        dyn = broadcast_sd(
            clustering, source,
            policy=CoveragePolicy.TWO_FIVE_HOP, pruning=PruningLevel.FULL,
        )
        out.append(
            RatioSample(
                n=n,
                mcds_size=len(mcds),
                static_25=build_static_backbone(
                    clustering, CoveragePolicy.TWO_FIVE_HOP
                ).size,
                static_3=build_static_backbone(
                    clustering, CoveragePolicy.THREE_HOP
                ).size,
                dynamic_25=dyn.result.num_forward_nodes,
                mo_cds=build_mo_cds(clustering).size,
            )
        )
    return out
