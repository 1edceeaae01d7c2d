"""Graph substrate: adjacency structure, unit-disk construction, analysis.

A deliberately small, dependency-light graph layer.  :class:`Graph` stores
undirected adjacency sets keyed by integer node ids; everything the paper
needs (k-hop neighbourhoods, connectivity, dominating/independent-set
predicates) lives here.
"""

from repro.graph.adjacency import Graph
from repro.graph.build import unit_disk_graph
from repro.graph.connectivity import (
    connected_components,
    is_connected,
    is_strongly_connected,
)
from repro.graph.generators import (
    chain_graph,
    grid_graph,
    paper_figure3_graph,
    random_geometric_network,
    star_graph,
)
from repro.graph.network import Network
from repro.graph.properties import (
    degree_stats,
    is_connected_dominating_set,
    is_dominating_set,
    is_independent_set,
)
from repro.graph.traversal import (
    bfs_distances,
    bfs_tree,
    k_hop_neighbourhood,
    shortest_path,
)

__all__ = [
    "Graph",
    "Network",
    "unit_disk_graph",
    "random_geometric_network",
    "paper_figure3_graph",
    "chain_graph",
    "grid_graph",
    "star_graph",
    "bfs_distances",
    "bfs_tree",
    "k_hop_neighbourhood",
    "shortest_path",
    "is_connected",
    "is_strongly_connected",
    "connected_components",
    "is_dominating_set",
    "is_independent_set",
    "is_connected_dominating_set",
    "degree_stats",
]
