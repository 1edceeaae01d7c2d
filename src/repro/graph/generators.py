"""Network and graph generators.

:func:`random_geometric_network` realises the paper's simulation environment:
uniform placement in a confined area, a shared range calibrated to a target
average degree, and **rejection of disconnected samples** ("If the generated
network is not connected, it is discarded").

:func:`paper_figure3_graph` reconstructs the 10-node worked example of the
paper's Figure 3 edge-by-edge from the CH_HOP1/CH_HOP2/GATEWAY message
listing in Section 3; integration tests replay the whole example against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ExperimentError
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.placement import chain_placement, uniform_placement
from repro.graph.adjacency import Graph
from repro.graph.build import connected_unit_disk_graph
from repro.graph.network import Network
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId

#: Edges of the paper's Figure 3 example, reconstructed from the message
#: trace in Section 3 (see DESIGN.md "Figure 3 worked example").
PAPER_FIGURE3_EDGES: tuple[tuple[int, int], ...] = (
    (1, 5), (1, 6), (1, 7),      # cluster C1 members
    (2, 6), (2, 8),              # cluster C2
    (3, 7), (3, 8), (3, 9), (3, 10),  # cluster C3
    (4, 9), (4, 10),             # cluster C4 (head only)
    (5, 9),                      # the CH_HOP2(5) = {3[9]} / CH_HOP2(9) = {1[5]} link
)


def paper_figure3_graph() -> Graph:
    """The 10-node graph of the paper's Figure 3 (ids 1..10).

    Lowest-ID clustering on this graph yields clusterheads ``{1, 2, 3, 4}``
    with members 5, 6, 7 in cluster 1, member 8 in cluster 2 and members
    9, 10 in cluster 3, exactly as in the paper.
    """
    return Graph(nodes=range(1, 11), edges=PAPER_FIGURE3_EDGES)


def chain_graph(n: int) -> Graph:
    """A path ``0 - 1 - ... - n-1`` — the paper's clustering worst case.

    With monotone ids along the chain the distributed lowest-ID clustering
    needs ``Θ(n)`` rounds, which is the bound quoted in the paper's time
    complexity analysis.
    """
    if n < 1:
        raise ConfigurationError(f"chain needs n >= 1, got {n}")
    return Graph(nodes=range(n), edges=((i, i + 1) for i in range(n - 1)))


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` 4-neighbour lattice with row-major ids."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid needs positive dims, got {rows}x{cols}")
    g = Graph(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def star_graph(n_leaves: int) -> Graph:
    """A star: hub 0 adjacent to leaves ``1..n_leaves``."""
    if n_leaves < 0:
        raise ConfigurationError(f"star needs >= 0 leaves, got {n_leaves}")
    return Graph(nodes=range(n_leaves + 1), edges=((0, i) for i in range(1, n_leaves + 1)))


def random_geometric_network(
    n: int,
    average_degree: float,
    *,
    area: Optional[Area] = None,
    rng: RngLike = None,
    max_attempts: int = 10_000,
    shuffle_ids: bool = False,
    radius: Optional[float] = None,
    torus: bool = False,
) -> Network:
    """One connected sample from the paper's simulation environment.

    Nodes are placed uniformly in ``area``; the shared range is derived from
    ``average_degree`` via :func:`~repro.geometry.disk.range_for_target_degree`
    (or given directly); disconnected samples are discarded and re-drawn, as
    in the paper.

    Rejection runs on the pair arrays, so only the accepted draw becomes a
    :class:`~repro.graph.adjacency.Graph`.  Its neighbour sets get their
    members in the order :meth:`~repro.graph.adjacency.Graph.add_edges`
    would insert the pairs, which fixes set iteration order and with it
    every downstream tie-break.

    Args:
        n: Number of nodes.
        average_degree: Target average degree (the paper uses 6 and 18).
        area: Working space (paper default ``100 x 100``).
        rng: Seed or generator.
        max_attempts: Rejection-sampling budget before giving up.  Sparse
            targets (e.g. ``d=6`` with ``n=20``) reject many samples, so the
            default is generous.
        shuffle_ids: If ``True``, assign node ids by a random permutation so
            the id order is independent of the position drawing order.  The
            paper's environment does not specify id assignment; uniform
            placement already decorrelates ids from geometry, so the default
            is ``False``.
        radius: Explicit transmission range, overriding the degree-derived
            one (``average_degree`` is then only documentation).
        torus: Wrap distances around the area (no border effects; the
            analytic degree calibration is then exact).

    Returns:
        A connected :class:`~repro.graph.network.Network`.

    Raises:
        ExperimentError: if no connected sample is found in ``max_attempts``.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    if max_attempts < 1:
        raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")
    area = area or Area.paper()
    r = radius if radius is not None else (
        range_for_target_degree(n, average_degree, area) if n >= 2 else area.diagonal
    )
    generator = ensure_rng(rng)
    for _ in range(max_attempts):
        pts = uniform_placement(n, area, generator)
        ids: Optional[Sequence[NodeId]] = None
        if shuffle_ids:
            # Drawn even for rejected samples so the generator consumes the
            # same stream as it always has (golden tests pin the outputs).
            ids = generator.permutation(n).tolist()
        graph = connected_unit_disk_graph(
            pts, r, ids=ids, torus=area if torus else None
        )
        if graph is None:
            continue
        id_list = ids if ids is not None else range(n)
        return Network(
            graph=graph,
            positions={
                v: (x, y) for v, (x, y) in zip(id_list, pts.tolist())
            },
            radius=r,
            area=area,
            torus=torus,
        )
    raise ExperimentError(
        f"no connected sample with n={n}, d={average_degree} in "
        f"{max_attempts} attempts; increase the degree or the budget"
    )


def chain_network(n: int, spacing: float = 1.0, radius: float = 1.5,
                  area: Optional[Area] = None) -> Network:
    """A connected chain :class:`Network` (worst case for clustering rounds).

    ``spacing < radius < 2 * spacing`` must hold so consecutive nodes are
    neighbours but next-but-one nodes are not.
    """
    if not (spacing < radius < 2.0 * spacing):
        raise ConfigurationError(
            f"need spacing < radius < 2*spacing for a chain topology, got "
            f"spacing={spacing}, radius={radius}"
        )
    area = area or Area(max(100.0, spacing * n), max(100.0, spacing * n))
    pts = chain_placement(n, spacing, area)
    return Network.from_positions(pts, radius, area=area)
