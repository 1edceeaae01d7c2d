"""The 3-hop coverage set: every clusterhead within graph distance 3.

``C2(u)`` is identical to the 2.5-hop case; ``C3(u)`` contains **all**
clusterheads at distance exactly 3, each with every relay pair ``(v, w)``
(``u–v–w–ch``) as witnesses.  Unlike the 2.5-hop set, a clusterhead enters
``C3`` even when none of its own members lies within ``N^2(u)`` (the ``c'``
case of the paper's Figure 1) — which is why the 3-hop set is a superset and
costs more to maintain.

The 3-hop cluster graph is symmetric (``w ∈ C(v) ⇔ v ∈ C(w)``), a property
the tests verify.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet, WitnessPair
from repro.errors import CoverageError
from repro.graph.csr import (
    CSRGraph,
    searchsorted_membership,
    sort_quads,
    sort_triples,
)
from repro.types import CoveragePolicy, NodeId

#: Heads per batch in :func:`three_hop_arrays`.  Bounds the working set of
#: the 3-level frontier expansion to roughly ``chunk * avg_degree**3`` keys
#: regardless of network size.
_HEAD_CHUNK = 1024


def coverage_pair(
    structure: ClusterStructure, head: NodeId
) -> Tuple[CoverageSet, CoverageSet]:
    """Clusterhead ``head``'s 2.5-hop and 3-hop coverage sets, one walk.

    One depth-3 BFS from ``head`` yields the 3-hop set.  The 2.5-hop set
    shares its ``C2`` and direct witnesses; its ``C3`` keeps each 3-hop
    target ``ch`` with a witness pair ``(v, w)`` whose ``w`` is a member of
    ``ch``, and keeps exactly those pairs — the entries ``ch[w]`` that the
    CH_HOP1/CH_HOP2 exchange delivers.  DESIGN.md §1 proves this for
    independent clusterheads, which every clustering the library builds
    has; coverage of a hand-made :class:`ClusterStructure` with adjacent
    heads (which :func:`repro.cluster.validate.validate_cluster_structure`
    rejects) is undefined.

    Args:
        structure: A finished clustering of the network.
        head: The clusterhead whose coverage sets to build.  The walk runs
            on the structure's shared topology view, so repeated coverage
            builds over one clustering reuse each other's BFS work.

    Returns:
        The ``(two_five_hop, three_hop)`` coverage sets, with witnesses.

    Raises:
        CoverageError: if ``head`` is not a clusterhead.
    """
    view, dist, direct = _walk(structure, head, 3)
    return (_coverage_set(head, CoveragePolicy.TWO_FIVE_HOP, direct,
                          _member_witnesses(structure, view, head, dist)),
            _coverage_set(head, CoveragePolicy.THREE_HOP, direct,
                          _path_witnesses(structure, view, head, dist)))


def three_hop_coverage(
    structure: ClusterStructure, head: NodeId
) -> CoverageSet:
    """Compute clusterhead ``head``'s 3-hop coverage set: the second half
    of :func:`coverage_pair` without the 2.5-hop filter (same arguments,
    same :class:`CoverageError`)."""
    view, dist, direct = _walk(structure, head, 3)
    return _coverage_set(head, CoveragePolicy.THREE_HOP, direct,
                         _path_witnesses(structure, view, head, dist))


def _walk(structure, head, depth):
    """The structure's topology view, ``head``'s hop distances up to
    ``depth``, and ``C2`` with its direct witnesses."""
    heads = structure.clusterheads
    if head not in heads:
        raise CoverageError(f"node {head} is not a clusterhead")
    view = structure.topology
    dist = view.distances_within(head, depth)
    direct = {ch: view.common_neighbours(ch, head)
              for ch, d in dist.items() if d == 2 and ch in heads}
    return view, dist, direct


def _path_witnesses(structure, view, head, dist):
    """3-hop ``C3``: every relay pair ``(v, w)`` of each distance-3 head."""
    heads = structure.clusterheads
    return {
        ch: frozenset((v, w) for w in view.neighbours(ch) if dist.get(w) == 2
                      for v in view.common_neighbours(w, head))
        for ch, d in dist.items() if d == 3 and ch in heads
    }


def _member_witnesses(structure, view, head, dist):
    """2.5-hop ``C3``: relay pairs ``(v, w)`` with ``w`` a distance-2 member
    of a distance-3 head (which a depth-2 ``dist`` lacks), by that head."""
    head_of = structure.head_of
    pairs: Dict[NodeId, List[WitnessPair]] = {}
    for w, d in dist.items():
        if d == 2 and (ch := head_of[w]) != w and dist.get(ch, 3) == 3:
            pairs.setdefault(ch, []).extend(
                (v, w) for v in view.common_neighbours(w, head))
    return {ch: frozenset(p) for ch, p in pairs.items()}


def _coverage_set(head, policy, direct, indirect) -> CoverageSet:
    return CoverageSet(head=head, policy=policy, c2=frozenset(direct),
                       c3=frozenset(indirect), direct_witnesses=direct,
                       indirect_witnesses=indirect)


def three_hop_arrays(csr: CSRGraph, head_row: np.ndarray) -> CoverageArrays:
    """3-hop coverage sets of **all** clusterheads, batched.

    Runs the depth-3 BFS of :func:`three_hop_coverage` for every head at
    once, in chunks of :data:`_HEAD_CHUNK` heads.  Level sets are kept as
    sorted ``head_index * n + node`` key arrays, so "is this node within
    distance d of that head" is a vectorised :func:`np.searchsorted`
    instead of a per-head distance dict.

    Args:
        csr: The network.
        head_row: Per-row clusterhead assignment from
            :func:`repro.cluster.lowest_id.lowest_id_rows`.

    Returns:
        The witness tables; materialising them per head is bit-identical
        to :func:`three_hop_coverage`.
    """
    n = csr.num_nodes
    rows = np.arange(n, dtype=np.int64)
    is_head = head_row == rows
    heads = np.flatnonzero(is_head)

    d_parts: List[List[np.ndarray]] = [[], [], []]
    i_parts: List[List[np.ndarray]] = [[], [], [], []]
    for c0 in range(0, heads.shape[0], _HEAD_CHUNK):
        chunk = heads[c0 : c0 + _HEAD_CHUNK]
        c = chunk.shape[0]
        k0 = np.arange(c, dtype=np.int64) * n + chunk

        # Distance-1 level set: (head_index, v) keys, already ascending
        # because head indices ascend and rows are sorted.
        v_flat, v_cnt = csr.gather_rows(chunk)
        hi1 = np.repeat(np.arange(c, dtype=np.int64), v_cnt)
        k1 = hi1 * n + v_flat

        # Distance-2: expand the ring, dedupe, drop distance <= 1.
        w_flat, w_cnt = csr.gather_rows(v_flat)
        k2_cand = np.unique(np.repeat(hi1, w_cnt) * n + w_flat)
        k2 = k2_cand[
            ~searchsorted_membership(k1, k2_cand)
            & ~searchsorted_membership(k0, k2_cand)
        ]
        hi2 = k2 // n
        w2 = k2 % n

        # C2 plus direct witnesses: common neighbours of (head, ch).
        c2_mask = is_head[w2]
        ch2 = w2[c2_mask]
        hic2 = hi2[c2_mask]
        wv_flat, wv_cnt = csr.gather_rows(ch2)
        hiw = np.repeat(hic2, wv_cnt)
        chw = np.repeat(ch2, wv_cnt)
        sel = searchsorted_membership(k1, hiw * n + wv_flat)
        d_parts[0].append(chunk[hiw[sel]])
        d_parts[1].append(chw[sel])
        d_parts[2].append(wv_flat[sel])

        # Distance-3 clusterheads, kept per (head, ch, w) edge so each
        # witness ``w`` at distance 2 is already attached.
        y_flat, y_cnt = csr.gather_rows(w2)
        hi3 = np.repeat(hi2, y_cnt)
        w3 = np.repeat(w2, y_cnt)
        ch3 = y_flat
        near = is_head[ch3]
        hi3, w3, ch3 = hi3[near], w3[near], ch3[near]
        k3 = hi3 * n + ch3
        far = (
            ~searchsorted_membership(k2, k3)
            & ~searchsorted_membership(k1, k3)
            & ~searchsorted_membership(k0, k3)
        )
        hi3, w3, ch3 = hi3[far], w3[far], ch3[far]

        # Witness pairs (v, w): v is a common neighbour of w and the head.
        vv_flat, vv_cnt = csr.gather_rows(w3)
        hiq = np.repeat(hi3, vv_cnt)
        chq = np.repeat(ch3, vv_cnt)
        wq = np.repeat(w3, vv_cnt)
        sel = searchsorted_membership(k1, hiq * n + vv_flat)
        i_parts[0].append(chunk[hiq[sel]])
        i_parts[1].append(chq[sel])
        i_parts[2].append(vv_flat[sel])
        i_parts[3].append(wq[sel])

    empty = np.empty(0, dtype=np.int64)
    d_head, d_ch, d_v = (
        np.concatenate(p) if p else empty for p in d_parts
    )
    i_head, i_ch, i_v, i_w = (
        np.concatenate(p) if p else empty for p in i_parts
    )
    # Packed single-key sorts, as in the 2.5-hop kernel — both guarded
    # against int64 overflow past the packing limits (lexsort fallback).
    d_head, d_ch, d_v = sort_triples(n, d_head, d_ch, d_v)
    i_head, i_ch, i_v, i_w = sort_quads(n, i_head, i_ch, i_v, i_w)
    return CoverageArrays(
        csr=csr,
        policy=CoveragePolicy.THREE_HOP,
        heads=heads,
        d_head=d_head,
        d_ch=d_ch,
        d_v=d_v,
        i_head=i_head,
        i_ch=i_ch,
        i_v=i_v,
        i_w=i_w,
    )
