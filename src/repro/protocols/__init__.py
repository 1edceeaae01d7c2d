"""Distributed, message-driven implementations of the paper's protocols.

Each phase of the paper's construction is a protocol class over
:class:`~repro.sim.network.SimNetwork`:

1. :class:`~repro.protocols.hello.HelloProtocol` — neighbour discovery;
2. :class:`~repro.protocols.clustering.DistributedLowestIdClustering` —
   CLUSTER_HEAD / NON_CLUSTER_HEAD declarations;
3. :class:`~repro.protocols.coverage.CoverageExchangeProtocol` — CH_HOP1 /
   CH_HOP2 (2.5-hop or 3-hop flavour);
4. :class:`~repro.protocols.gateway.GatewayDesignationProtocol` — GATEWAY
   messages with TTL 2 (static backbone only);
5. distributed broadcasts over the result
   (:mod:`repro.protocols.broadcast`).

:func:`~repro.protocols.runner.run_distributed_build` chains the phases and
returns the assembled structures together with per-phase message statistics;
property tests assert the outcome is *identical* to the centralised
algorithms, and the statistics back the paper's O(n) message/time claims.
"""

from repro.protocols.hello import HelloProtocol
from repro.protocols.clustering import DistributedLowestIdClustering
from repro.protocols.coverage import CoverageExchangeProtocol
from repro.protocols.gateway import GatewayDesignationProtocol
from repro.protocols.broadcast import (
    DistributedSDBroadcast,
    DistributedSIBroadcast,
)
from repro.protocols.runner import (
    DistributedBuildResult,
    PhaseStats,
    run_distributed_build,
    run_distributed_sd_broadcast,
    run_distributed_si_broadcast,
)

__all__ = [
    "HelloProtocol",
    "DistributedLowestIdClustering",
    "CoverageExchangeProtocol",
    "GatewayDesignationProtocol",
    "DistributedSIBroadcast",
    "DistributedSDBroadcast",
    "DistributedBuildResult",
    "PhaseStats",
    "run_distributed_build",
    "run_distributed_sd_broadcast",
    "run_distributed_si_broadcast",
]
