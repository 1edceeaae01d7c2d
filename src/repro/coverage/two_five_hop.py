"""The 2.5-hop coverage set (CH_HOP1 / CH_HOP2 semantics).

This module computes, centrally, exactly what the paper's message exchange
gives a clusterhead ``u``:

* every non-clusterhead ``v`` broadcasts ``CH_HOP1(v)`` — its 1-hop
  neighbouring clusterheads;
* on hearing ``CH_HOP1(w)`` from a neighbour ``w``, node ``v`` records the
  entry ``head(w)[w]`` **unless** ``head(w)`` is itself a neighbour of ``v``;
  ``v`` then broadcasts the entries as ``CH_HOP2(v)``;
* ``u`` assembles ``C2(u)`` from its neighbours' CH_HOP1 and ``C3(u)`` from
  their CH_HOP2, dropping from ``C3`` anything already in ``C2`` (and ``u``).

Note the fine point visible in the paper's example ("node 4 is not added to
node 5's 2-hop neighbor clusterhead set"): CH_HOP2 entries carry only the
*clusterhead of the announcing member* — a distance-3 clusterhead enters the
2.5-hop set only when one of its own members sits within ``N^2(u)``.

The distributed implementation in :mod:`repro.protocols.coverage` is
property-tested to agree with this function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set

import numpy as np

from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet, WitnessPair, freeze_witnesses
from repro.errors import CoverageError
from repro.graph.csr import (
    CSRGraph,
    grouped_cartesian,
    searchsorted_membership,
    sort_quads,
    sort_triples,
)
from repro.types import CoveragePolicy, NodeId

if TYPE_CHECKING:
    from repro.topology.view import TopologyView


def two_five_hop_coverage(
    structure: ClusterStructure,
    head: NodeId,
    *,
    view: Optional["TopologyView"] = None,
) -> CoverageSet:
    """Compute clusterhead ``head``'s 2.5-hop coverage set.

    Args:
        structure: A finished clustering of the network.
        head: The clusterhead whose coverage set to build.
        view: Topology view to serve the neighbourhood queries (must wrap a
            graph equal to ``structure.graph``).  Defaults to the
            structure's shared view.

    Returns:
        The :class:`~repro.coverage.entries.CoverageSet` with witnesses.

    Raises:
        CoverageError: if ``head`` is not a clusterhead.
    """
    # Membership in the cached head set is ``is_clusterhead`` without a
    # method call per test (the loops below run millions of them).
    heads = structure.clusterheads
    head_of = structure.head_of
    if head not in heads:
        raise CoverageError(f"node {head} is not a clusterhead")
    if view is None:
        view = structure.topology

    c2: Set[NodeId] = set()
    direct: Dict[NodeId, Set[NodeId]] = {}
    # C2(u): union of CH_HOP1(v) over u's neighbours v, minus u itself.
    # (All neighbours of a clusterhead are non-clusterheads, so each really
    # does send a CH_HOP1.)
    for v in view.neighbours(head):
        for ch in view.neighbours(v):
            if ch not in heads or ch == head:
                continue
            c2.add(ch)
            direct.setdefault(ch, set()).add(v)

    c3: Set[NodeId] = set()
    indirect: Dict[NodeId, Set[WitnessPair]] = {}
    # C3(u): union of CH_HOP2(v) entries.  v's CH_HOP2 holds head(w)[w] for
    # each non-clusterhead neighbour w whose own head is not adjacent to v.
    for v in view.neighbours(head):
        nv = view.neighbours(v)
        for w in nv:
            if w in heads:
                continue  # CH_HOP1 of clusterheads does not exist
            ch = head_of[w]
            if ch in nv:
                continue  # v ignores entries whose head it already neighbours
            if ch == head:
                continue  # defensive; implied by the previous test since v ~ head
            c3.add(ch)
            indirect.setdefault(ch, set()).add((v, w))

    # "If a clusterhead appears in both C2(u) and C3(u), the one in C3(u) is
    # removed."
    for ch in c2:
        c3.discard(ch)
        indirect.pop(ch, None)

    dfz, ifz = freeze_witnesses(direct, indirect)
    return CoverageSet(
        head=head,
        policy=CoveragePolicy.TWO_FIVE_HOP,
        c2=frozenset(c2),
        c3=frozenset(c3),
        direct_witnesses=dfz,
        indirect_witnesses=ifz,
    )


def two_five_hop_arrays(csr: CSRGraph, head_row: np.ndarray) -> CoverageArrays:
    """2.5-hop coverage sets of **all** clusterheads, batched.

    One vectorised pass over every node's neighbour list replaces the
    per-head set walks of :func:`two_five_hop_coverage`:

    * a direct triple ``(h, ch, v)`` is exactly an ordered pair of distinct
      clusterhead neighbours ``(h, ch)`` of some node ``v`` — the CH_HOP1
      relation read backwards;
    * an indirect quad ``(h, ch, v, w)`` pairs a clusterhead neighbour
      ``h`` of ``v`` with a non-clusterhead neighbour ``w`` whose own head
      ``ch`` is neither ``h`` nor adjacent to ``v`` (the CH_HOP2 rule),
      minus any ``(h, ch)`` already reachable directly.

    Args:
        csr: The network.
        head_row: Per-row clusterhead assignment from
            :func:`repro.cluster.lowest_id.lowest_id_rows`.

    Returns:
        The witness tables; materialising them per head is bit-identical
        to :func:`two_five_hop_coverage`.
    """
    n = csr.num_nodes
    rows = np.arange(n, dtype=np.int64)
    is_head = head_row == rows
    degrees = csr.degrees.astype(np.int64)
    flat = csr.indices.astype(np.int64)
    src = np.repeat(rows, degrees)
    nbr_is_head = is_head[flat]

    # Per-node grouped lists of clusterhead / non-clusterhead neighbours.
    # Slicing the (already row-grouped, row-sorted) flat adjacency keeps
    # both lists grouped by source node with ascending members.
    head_nbrs = flat[nbr_is_head]
    k = np.bincount(src[nbr_is_head], minlength=n)
    k_start = np.zeros(n, dtype=np.int64)
    np.cumsum(k[:-1], out=k_start[1:])
    plain_nbrs = flat[~nbr_is_head]

    # Direct triples: ordered pairs of distinct head neighbours of v.
    grp, a, b = grouped_cartesian(k, k)
    keep = a != b
    grp, a, b = grp[keep], a[keep], b[keep]
    d_head = head_nbrs[k_start[grp] + a]
    d_ch = head_nbrs[k_start[grp] + b]
    # Sort by (head, ch, v) — a packed single-key sort up to the int64
    # packing limit, an order-identical lexsort beyond (see
    # :func:`repro.graph.csr.sort_triples`).  The unique (head, ch) pairs
    # for the C3 removal rule fall out of the sorted pair keys by boundary
    # detection (pair keys never overflow: rows are int32).
    d_head, d_ch, d_v = sort_triples(n, d_head, d_ch, grp)
    d_pair = d_head * n + d_ch
    if d_pair.shape[0]:
        first = np.empty(d_pair.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(d_pair[1:], d_pair[:-1], out=first[1:])
        d_keys = d_pair[first]
    else:
        d_keys = d_pair

    # Indirect quads.  First build each node's CH_HOP2 content — for every
    # non-head neighbour w of v, the entry ``head(w)[w]`` unless head(w)
    # is adjacent to v — which is independent of the receiving head, so
    # the adjacency test runs once per directed edge rather than once per
    # (head, edge) candidate.
    v_of_plain = src[~nbr_is_head]
    ch_of_plain = head_row[plain_nbrs]
    ok = ~searchsorted_membership(
        csr.edge_keys(), v_of_plain * n + ch_of_plain
    )
    entry_w = plain_nbrs[ok]
    entry_ch = ch_of_plain[ok]
    m = np.bincount(v_of_plain[ok], minlength=n)
    m_start = np.zeros(n, dtype=np.int64)
    np.cumsum(m[:-1], out=m_start[1:])
    # Then pair every head neighbour h of v with v's entries.
    grp, a, b = grouped_cartesian(k, m)
    q_head = head_nbrs[k_start[grp] + a]
    q_ch = entry_ch[m_start[grp] + b]
    keep = q_ch != q_head
    grp, b = grp[keep], b[keep]
    q_head, q_ch = q_head[keep], q_ch[keep]
    # "If a clusterhead appears in both C2(u) and C3(u), the one in C3(u)
    # is removed."
    keep = ~searchsorted_membership(d_keys, q_head * n + q_ch)
    grp, b = grp[keep], b[keep]
    q_head, q_ch = q_head[keep], q_ch[keep]
    q_v = grp
    q_w = entry_w[m_start[grp] + b]

    i_head, i_ch, i_v, i_w = sort_quads(n, q_head, q_ch, q_v, q_w)
    return CoverageArrays(
        csr=csr,
        policy=CoveragePolicy.TWO_FIVE_HOP,
        heads=np.flatnonzero(is_head),
        d_head=d_head,
        d_ch=d_ch,
        d_v=d_v,
        i_head=i_head,
        i_ch=i_ch,
        i_v=i_v,
        i_w=i_w,
    )
