"""repro — Cluster-Based Backbone Infrastructure for Broadcasting in MANETs.

A full reproduction of Lou & Wu (IPPS 2003): lowest-ID clustering, 2.5-hop
and 3-hop coverage sets, the static (source-independent) and dynamic
(source-dependent) cluster-based CDS backbones, the MO_CDS baseline, the
distributed message-level protocols on a discrete-event simulator, and the
experiment harness regenerating the paper's Figures 6-8.

Quickstart::

    from repro import (
        random_geometric_network, lowest_id_clustering,
        build_static_backbone, broadcast_sd,
    )

    net = random_geometric_network(n=60, average_degree=6, rng=42)
    clustering = lowest_id_clustering(net.graph)
    backbone = build_static_backbone(clustering)          # SI-CDS
    dyn = broadcast_sd(clustering, source=0)              # SD-CDS broadcast
    print(backbone.size, dyn.result.num_forward_nodes)
"""

from repro.backbone import (
    Backbone,
    GatewaySelection,
    build_mo_cds,
    build_static_backbone,
    select_gateways,
    verify_backbone,
)
from repro.broadcast import (
    BroadcastResult,
    DynamicBroadcast,
    blind_flooding,
    broadcast_dominant_pruning,
    broadcast_forwarding_tree,
    broadcast_mpr,
    broadcast_passive_clustering,
    broadcast_rad,
    broadcast_sd,
    broadcast_si,
    check_full_delivery,
    delivery_ratio,
)
from repro.cluster import (
    Cluster,
    ClusterStructure,
    build_cluster_graph,
    cluster_graph_is_strongly_connected,
    highest_degree_clustering,
    lowest_id_clustering,
    validate_cluster_structure,
)
from repro.coverage import (
    CoverageSet,
    compute_all_coverage_sets,
    compute_coverage_set,
    three_hop_coverage,
    two_five_hop_coverage,
)
from repro.errors import ReproError
from repro.geometry import Area
from repro.topology import TopologyView, as_view
from repro.graph import (
    Graph,
    Network,
    paper_figure3_graph,
    random_geometric_network,
    unit_disk_graph,
)
from repro.types import CoveragePolicy, NodeRole, PruningLevel

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    # geometry / graph
    "Area",
    "Graph",
    "Network",
    "unit_disk_graph",
    "random_geometric_network",
    "paper_figure3_graph",
    # clustering
    "Cluster",
    "ClusterStructure",
    "lowest_id_clustering",
    "highest_degree_clustering",
    "validate_cluster_structure",
    "build_cluster_graph",
    "cluster_graph_is_strongly_connected",
    # topology
    "TopologyView",
    "as_view",
    # coverage
    "CoverageSet",
    "CoveragePolicy",
    "compute_coverage_set",
    "compute_all_coverage_sets",
    "two_five_hop_coverage",
    "three_hop_coverage",
    # backbone
    "Backbone",
    "GatewaySelection",
    "select_gateways",
    "build_static_backbone",
    "build_mo_cds",
    "verify_backbone",
    # broadcast
    "BroadcastResult",
    "DynamicBroadcast",
    "blind_flooding",
    "broadcast_si",
    "broadcast_sd",
    "broadcast_dominant_pruning",
    "broadcast_mpr",
    "broadcast_rad",
    "broadcast_forwarding_tree",
    "broadcast_passive_clustering",
    "check_full_delivery",
    "delivery_ratio",
    "PruningLevel",
    "NodeRole",
]
