"""SVG export of networks and backbones (pure string generation, no deps).

Produces self-contained SVG documents in the visual language of the paper's
figures: black disks for clusterheads, grey disks for gateways, white disks
for other nodes, light edges for links and heavy edges for the backbone's
connector paths.  Useful for papers, READMEs and debugging.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.backbone.static_backbone import Backbone
from repro.cluster.state import ClusterStructure
from repro.errors import ConfigurationError
from repro.graph.network import Network
from repro.types import NodeId

_STYLE = {
    "clusterhead": ("#1a1a1a", "#000000"),
    "gateway": ("#9aa0a6", "#4d4d4d"),
    "member": ("#ffffff", "#555555"),
}


def _header(width: float, height: float) -> List[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width:g} {height:g}" '
        f'width="{width:g}" height="{height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="#fcfcfa"/>',
    ]


def network_to_svg(
    network: Network,
    *,
    structure: Optional[ClusterStructure] = None,
    gateways: Iterable[NodeId] = (),
    highlight_edges: Iterable[Tuple[NodeId, NodeId]] = (),
    scale: float = 6.0,
    node_radius: float = 2.2,
    labels: bool = True,
) -> str:
    """Render ``network`` (optionally with roles) as an SVG document string.

    Args:
        network: Positions, area and links.
        structure: If given, clusterheads are drawn black (paper style).
        gateways: Drawn grey.
        highlight_edges: Drawn with heavy strokes (e.g. backbone connectors).
        scale: Pixels per area unit.
        node_radius: Node disk radius in area units.
        labels: Draw node ids next to the disks.

    Returns:
        The SVG XML as a string (write it to a ``.svg`` file to view).
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    w = network.area.width * scale
    h = network.area.height * scale
    gateway_set: Set[NodeId] = set(gateways)
    highlight: Set[Tuple[NodeId, NodeId]] = {
        (min(u, v), max(u, v)) for u, v in highlight_edges
    }

    def xy(v: NodeId) -> Tuple[float, float]:
        x, y = network.positions[v]
        return x * scale, (network.area.height - y) * scale  # y grows upward

    parts = _header(w, h)
    parts.append('<g stroke="#c9d1d9" stroke-width="1">')
    for u, v in network.graph.edges():
        if (u, v) in highlight:
            continue
        (x1, y1), (x2, y2) = xy(u), xy(v)
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}"/>'
        )
    parts.append("</g>")
    if highlight:
        parts.append('<g stroke="#2f6fab" stroke-width="2.5">')
        for u, v in sorted(highlight):
            if not network.graph.has_edge(u, v):
                raise ConfigurationError(
                    f"highlight edge ({u}, {v}) is not a link of the network"
                )
            (x1, y1), (x2, y2) = xy(u), xy(v)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" '
                f'x2="{x2:.1f}" y2="{y2:.1f}"/>'
            )
        parts.append("</g>")

    r = node_radius * scale
    parts.append('<g stroke-width="1.2">')
    for v in network.graph.nodes():
        if structure is not None and structure.is_clusterhead(v):
            fill, stroke = _STYLE["clusterhead"]
        elif v in gateway_set:
            fill, stroke = _STYLE["gateway"]
        else:
            fill, stroke = _STYLE["member"]
        x, y = xy(v)
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )
        if labels:
            parts.append(
                f'<text x="{x + r + 1:.1f}" y="{y - r - 1:.1f}" '
                f'font-size="{max(8.0, 1.6 * r):.0f}" '
                f'font-family="sans-serif" fill="#333">{v}</text>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def backbone_to_svg(network: Network, backbone: Backbone, **kwargs) -> str:
    """Render a backbone: heads black, gateways grey, connectors heavy.

    Connector paths come from the per-head selections, giving the same
    marked-edge look as the paper's Figure 2(a).
    """
    edges: List[Tuple[NodeId, NodeId]] = []
    for head, selection in backbone.selections.items():
        for target, path in selection.connectors.items():
            hops = [head, *path, target]
            edges.extend(zip(hops, hops[1:]))
    return network_to_svg(
        network,
        structure=backbone.structure,
        gateways=backbone.gateways,
        highlight_edges=edges,
        **kwargs,
    )
