"""The 2.5-hop coverage set (CH_HOP1 / CH_HOP2 semantics).

The paper's message exchange gives a clusterhead ``u`` its set as follows:

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

Centrally, that is the 3-hop set with ``C3`` cut down to the witness pairs
``(v, w)`` whose ``w`` is a member of the target (DESIGN.md §1), so
:func:`two_five_hop_coverage` shares the 3-hop walk's code, and
:func:`~repro.coverage.three_hop.coverage_pair` builds both sets from one
walk.  The literal CH_HOP1/CH_HOP2 walk is the test suite's oracle; the
batched :func:`two_five_hop_arrays` and the distributed implementation in
:mod:`repro.protocols.coverage` are property-tested against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet
from repro.coverage.three_hop import _coverage_set, _member_witnesses, _walk
from repro.graph.csr import (
    CSRGraph,
    grouped_cartesian,
    searchsorted_membership,
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
    """Compute clusterhead ``head``'s 2.5-hop coverage set: the first half
    of :func:`~repro.coverage.three_hop.coverage_pair` (same arguments,
    error and precondition), read off a depth-2 BFS."""
    view, dist, direct = _walk(structure, head, view, 2)
    return _coverage_set(head, CoveragePolicy.TWO_FIVE_HOP, direct,
                         _member_witnesses(structure, view, head, dist))


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

    # Indirect quads.  Each node v's CH_HOP2 holds ``head(w)[w]`` for every
    # non-head neighbour w unless head(w) is adjacent to v.  That rule needs
    # no adjacency look-up: when head(w) ~ v, every other head neighbour h
    # of v shares v with head(w), so (h, head(w)) is a direct pair and the
    # C3 removal below drops the quad anyway.  Dropping head(w) = head(v)
    # up front only keeps the table small: a member v is adjacent to its
    # head, and a head v has no head neighbours to pair with.
    v_of_plain = src[~nbr_is_head]
    ch_of_plain = head_row[plain_nbrs]
    ok = ch_of_plain != head_row[v_of_plain]
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
    q_w = entry_w[m_start[grp] + b]

    # The quads were generated in ascending (v, w) order within each
    # (head, ch) pair (v's groups ascend, and for a fixed head its entries
    # ascend by w), so one stable sort on the pair key orders them by
    # (head, ch, v, w) at every n — no packing tiers needed.
    order = np.argsort(q_head * n + q_ch, kind="stable")
    i_head, i_ch, i_v, i_w = q_head[order], q_ch[order], grp[order], q_w[order]
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
