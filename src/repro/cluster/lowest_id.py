"""Centralised lowest-ID clustering (Ephremides, Wieselthier, Baker).

The distributed protocol declares a candidate a clusterhead when it has the
smallest id among its *candidate* neighbours; a candidate hearing a
clusterhead declaration from a neighbour joins the neighbouring cluster with
the smallest head id.  The unique fixpoint of that process has a simple
sequential characterisation, which this module computes:

    scanning ids in ascending order, ``v`` is a clusterhead iff no
    neighbour with a smaller id is already a clusterhead; otherwise ``v``
    joins the smallest-id neighbouring clusterhead.

(Induction: the overall smallest id is always a head; for any ``v``, each
smaller-id neighbour has already decided, and if none of them is a head then
``v`` eventually has no smaller-id candidate neighbour and declares.)
The message-driven protocol in :mod:`repro.protocols.clustering` is
property-tested to agree with this function on random graphs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro import perf
from repro.cluster.state import ClusterStructure
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph, mask_unique_rows, row_reduce_min
from repro.types import NodeId

#: Frontier-relaxation rounds before falling back to the sequential scan.
#: Random geometric graphs settle in a handful of rounds; only adversarial
#: monotone-id chains approach the bound, and those finish in the scan.
_MAX_RELAXATION_ROUNDS = 64


@perf.timed("clustering")
def lowest_id_clustering(graph: Graph) -> ClusterStructure:
    """Cluster ``graph`` with the lowest-ID rule.

    Args:
        graph: Any undirected graph (need not be connected; every component
            is clustered independently, and isolated nodes become singleton
            clusterheads).

    Returns:
        The resulting :class:`~repro.cluster.state.ClusterStructure`.
    """
    head_of: Dict[NodeId, NodeId] = {}
    is_head: Dict[NodeId, bool] = {}
    for v in graph.nodes():  # ascending id order
        neighbour_heads = [w for w in graph.neighbours_view(v) if is_head.get(w, False)]
        if neighbour_heads:
            head_of[v] = min(neighbour_heads)
            is_head[v] = False
        else:
            head_of[v] = v
            is_head[v] = True
    return ClusterStructure(graph=graph, head_of=head_of)


def lowest_id_rows(csr: CSRGraph) -> np.ndarray:
    """The lowest-ID clustering of a CSR graph, as a head-row array.

    The array kernel behind :func:`lowest_id_clustering`: CSR rows ascend
    by node id, so the sequential fixpoint ("``v`` is a head iff no
    smaller-row neighbour already is") is computed by iterative frontier
    relaxation — each round declares every undecided node that is a local
    row minimum among its undecided neighbours a head (per-row minima via
    one ``np.minimum.reduceat`` pass) and demotes the heads' undecided
    neighbours to members.  Undecided nodes never have a head neighbour,
    so the local-minimum rule is exact, and the result is bit-identical to
    the set-based scan.

    Returns:
        ``head_row`` with ``head_row[r]`` the head's row for every row
        ``r`` (heads map to themselves).
    """
    n = csr.num_nodes
    # 0 undecided, 1 head, 2 member.
    state = np.zeros(n, dtype=np.int8)
    undecided = np.arange(n, dtype=np.int64)
    rounds = 0
    while undecided.size and rounds < _MAX_RELAXATION_ROUNDS:
        rounds += 1
        flat, counts = csr.gather_rows(undecided)
        vals = np.where(state[flat] == 0, flat, n)
        offsets = np.zeros(undecided.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        min_undecided_nbr = row_reduce_min(vals, offsets, empty=n)
        new_heads = undecided[undecided < min_undecided_nbr]
        state[new_heads] = 1
        nbrs, _ = csr.gather_rows(new_heads)
        members = nbrs[state[nbrs] == 0]
        state[members] = 2
        undecided = undecided[state[undecided] == 0]
    # Sequential fallback for long monotone dependency chains: process the
    # leftovers in ascending row order with the original scan rule (no
    # still-undecided node has a decided head neighbour from the rounds
    # above, so "head iff no neighbouring head" remains exact).
    for v in undecided.tolist():
        row = csr.row(v)
        state[v] = 2 if (state[row] == 1).any() else 1
    head_row = np.arange(n, dtype=np.int64)
    members = np.flatnonzero(state == 2)
    if members.size:
        flat, counts = csr.gather_rows(members)
        vals = np.where(state[flat] == 1, flat, n)
        offsets = np.zeros(members.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        head_row[members] = row_reduce_min(vals, offsets, empty=n)
    return head_row


def _constrained_fixpoint(
    csr: CSRGraph, frozen_is_head: np.ndarray, affected: np.ndarray
) -> np.ndarray:
    """The lowest-ID fixpoint with every row outside ``affected`` frozen.

    The restricted analogue of :func:`lowest_id_rows`: affected rows are
    reset to undecided while the complement keeps its head flag from
    ``frozen_is_head``, so the relaxation only ever gathers the affected
    rows' neighbourhoods.
    A frozen *smaller* head demotes an affected neighbour up front; frozen
    *larger* heads are irrelevant to the rule (a node only looks at
    smaller ids), which is why the fallback scan below must test
    ``row < v`` explicitly — unlike the unconstrained kernel, a leftover
    here can legitimately have a larger frozen head neighbour.
    """
    n = csr.num_nodes
    state = np.where(frozen_is_head, np.int8(1), np.int8(2))
    state[affected] = 0
    flat, counts = csr.gather_rows(affected)
    src = np.repeat(affected, counts)
    demote = (state[flat] == 1) & (flat < src)
    state[src[demote]] = 2
    undecided = affected[state[affected] == 0]
    rounds = 0
    while undecided.size and rounds < _MAX_RELAXATION_ROUNDS:
        rounds += 1
        flat, counts = csr.gather_rows(undecided)
        vals = np.where(state[flat] == 0, flat, n)
        offsets = np.zeros(undecided.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        min_undecided_nbr = row_reduce_min(vals, offsets, empty=n)
        new_heads = undecided[undecided < min_undecided_nbr]
        state[new_heads] = 1
        nbrs, _ = csr.gather_rows(new_heads)
        members = nbrs[state[nbrs] == 0]
        state[members] = 2
        undecided = undecided[state[undecided] == 0]
    for v in undecided.tolist():
        row = csr.row(v)
        state[v] = 2 if ((state[row] == 1) & (row < v)).any() else 1
    return state == 1


def repair_lowest_id_rows(
    csr: CSRGraph, old_head_row: np.ndarray, seeds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Repair a lowest-ID clustering after a batch of edge changes.

    ``seeds`` are the rows incident to changed edges in ``csr`` (the *new*
    graph).  The kernel re-runs the fixpoint only over the affected ball:
    starting from the seeds, it solves the constrained fixpoint with the
    complement frozen at the old assignment, then — since a flip at ``v``
    can only change the rule's outcome at *larger* neighbours — expands
    the ball by every larger neighbour of a flipped row not yet inside
    and re-solves, until no flip escapes.  The final assignment satisfies
    the (unique) global fixpoint at every row, so it is bit-identical to
    :func:`lowest_id_rows` from scratch; only the work is local.

    Each later round is warm-started: it re-solves only the *upward cone*
    of the fresh rows (the rows reachable from them through larger
    neighbours inside the ball), with every other row frozen at the
    previous round's state.  The rule at a row reads only its smaller
    neighbours, and no row outside the cone has a smaller neighbour inside
    it, so those rows keep their state (DESIGN.md §2).

    Returns:
        ``(head_row, reevaluated, flipped, reassigned)`` — the repaired
        assignment plus the repair-locality row sets: rows whose rule was
        re-run, rows whose head status changed, and rows (non-head before
        and after) whose assigned head changed.
    """
    n = csr.num_nodes
    rows = np.arange(n, dtype=np.int64)
    old_is_head = old_head_row == rows
    solved = mask_unique_rows(np.asarray(seeds, dtype=np.int64), n)
    is_head = _constrained_fixpoint(csr, old_is_head, solved)
    inside = np.zeros(n, dtype=bool)
    inside[solved] = True
    while True:
        # A row flipped in an earlier round and not re-solved since has
        # every larger neighbour inside already: only this round's rows
        # can yield fresh ones.
        moved = solved[is_head[solved] != old_is_head[solved]]
        flat, counts = csr.gather_rows(moved)
        larger = flat[flat > np.repeat(moved, counts)]
        fresh = mask_unique_rows(larger[~inside[larger]], n)
        if fresh.size == 0:
            break
        inside[fresh] = True
        cone = np.zeros(n, dtype=bool)
        cone[fresh] = True
        frontier = fresh
        while frontier.size:
            flat, counts = csr.gather_rows(frontier)
            up = flat[flat > np.repeat(frontier, counts)]
            frontier = mask_unique_rows(up[inside[up] & ~cone[up]], n)
            cone[frontier] = True
        solved = np.flatnonzero(cone)
        is_head = _constrained_fixpoint(csr, is_head, solved)
    affected = np.flatnonzero(inside)
    flipped = affected[is_head[affected] != old_is_head[affected]]
    # Head assignments can change only where the neighbourhood or a
    # neighbour's head flag did: the seeds plus the flipped rows plus the
    # flipped rows' neighbours.
    nbrs_of_flipped, _ = csr.gather_rows(flipped)
    dirty = mask_unique_rows(np.concatenate([
        np.asarray(seeds, dtype=np.int64), flipped, nbrs_of_flipped
    ]), n)
    head_row = old_head_row.copy()
    if dirty.size:
        head_row[dirty[is_head[dirty]]] = dirty[is_head[dirty]]
        members = dirty[~is_head[dirty]]
        if members.size:
            flat, counts = csr.gather_rows(members)
            vals = np.where(is_head[flat], flat, n)
            offsets = np.zeros(members.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            head_row[members] = row_reduce_min(vals, offsets, empty=n)
    changed = dirty[head_row[dirty] != old_head_row[dirty]]
    reassigned = changed[~old_is_head[changed] & ~is_head[changed]]
    return head_row, affected, flipped, reassigned
