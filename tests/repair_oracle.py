"""The from-scratch-per-round lowest-ID repair: the oracle of the warm-started one.

:func:`repair_rounds_from_scratch` is the expansion loop that
:func:`repro.cluster.lowest_id.repair_lowest_id_rows` ran before its later
rounds were warm-started: every round re-solves the constrained fixpoint
over the *whole* ball, with every row outside it frozen at the old
assignment.  The library kernel must return the same
``(head_row, reevaluated, flipped, reassigned)`` on every input.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph, mask_unique_rows, row_reduce_min

_MAX_RELAXATION_ROUNDS = 64


def _constrained_fixpoint(
    csr: CSRGraph, old_is_head: np.ndarray, affected: np.ndarray
) -> np.ndarray:
    """The lowest-ID fixpoint with every row outside ``affected`` frozen."""
    n = csr.num_nodes
    state = np.where(old_is_head, np.int8(1), np.int8(2))
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


def repair_rounds_from_scratch(
    csr: CSRGraph, old_head_row: np.ndarray, seeds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``repair_lowest_id_rows`` with a full re-solve in every round."""
    n = csr.num_nodes
    rows = np.arange(n, dtype=np.int64)
    old_is_head = old_head_row == rows
    affected = mask_unique_rows(np.asarray(seeds, dtype=np.int64), n)
    while True:
        is_head = _constrained_fixpoint(csr, old_is_head, affected)
        flipped = affected[is_head[affected] != old_is_head[affected]]
        flat, counts = csr.gather_rows(flipped)
        src = np.repeat(flipped, counts)
        larger = flat[flat > src]
        inside = np.zeros(n, dtype=bool)
        inside[affected] = True
        fresh = larger[~inside[larger]]
        if fresh.size == 0:
            break
        affected = mask_unique_rows(np.concatenate([affected, fresh]), n)
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
