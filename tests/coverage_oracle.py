"""Literal coverage-set walks: the oracles the library's coverage is checked against.

* :func:`ch_hop_walk` follows the paper's CH_HOP1/CH_HOP2 exchange message
  by message for one clusterhead — the definition of the 2.5-hop set.
* :func:`distance_walk` reads the 3-hop set straight off BFS distances.

Both use only the plain graph (no topology view, no shared walk), so they
are independent of :func:`repro.coverage.three_hop.coverage_pair`.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.cluster.state import ClusterStructure
from repro.coverage.entries import CoverageSet, WitnessPair, freeze_witnesses
from repro.graph.traversal import bfs_distances
from repro.types import CoveragePolicy, NodeId


def ch_hop_walk(structure: ClusterStructure, head: NodeId) -> CoverageSet:
    """``head``'s 2.5-hop set by the literal CH_HOP1/CH_HOP2 walk."""
    graph = structure.graph
    heads = structure.clusterheads
    head_of = structure.head_of
    direct: Dict[NodeId, Set[NodeId]] = {}
    indirect: Dict[NodeId, Set[WitnessPair]] = {}
    for v in graph.neighbours_view(head):
        nv = graph.neighbours_view(v)
        # C2(u): the union of CH_HOP1(v), minus u itself.
        for ch in nv:
            if ch in heads and ch != head:
                direct.setdefault(ch, set()).add(v)
        # C3(u): v's CH_HOP2 holds head(w)[w] for each non-clusterhead
        # neighbour w whose own head is not adjacent to v.
        for w in nv:
            if w in heads:
                continue
            ch = head_of[w]
            if ch in nv or ch == head:
                continue
            indirect.setdefault(ch, set()).add((v, w))
    # "If a clusterhead appears in both C2(u) and C3(u), the one in C3(u) is
    # removed."
    for ch in direct:
        indirect.pop(ch, None)
    dfz, ifz = freeze_witnesses(direct, indirect)
    return CoverageSet(
        head=head,
        policy=CoveragePolicy.TWO_FIVE_HOP,
        c2=frozenset(dfz),
        c3=frozenset(ifz),
        direct_witnesses=dfz,
        indirect_witnesses=ifz,
    )


def distance_walk(structure: ClusterStructure, head: NodeId) -> CoverageSet:
    """``head``'s 3-hop set: every clusterhead at distance 2 or 3, with
    every witness path."""
    graph = structure.graph
    dist = bfs_distances(graph, head, max_depth=3)
    direct: Dict[NodeId, Set[NodeId]] = {}
    indirect: Dict[NodeId, Set[WitnessPair]] = {}
    for ch in structure.clusterheads:
        d = dist.get(ch)
        if d == 2:
            direct[ch] = {
                v for v in graph.neighbours_view(head) if graph.has_edge(v, ch)
            }
        elif d == 3:
            indirect[ch] = {
                (v, w)
                for v in graph.neighbours_view(head)
                for w in graph.neighbours_view(v)
                if graph.has_edge(w, ch)
            }
    dfz, ifz = freeze_witnesses(direct, indirect)
    return CoverageSet(
        head=head,
        policy=CoveragePolicy.THREE_HOP,
        c2=frozenset(dfz),
        c3=frozenset(ifz),
        direct_witnesses=dfz,
        indirect_witnesses=ifz,
    )
