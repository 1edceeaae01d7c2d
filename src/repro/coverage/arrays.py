"""Batched coverage sets in array form.

The CSR coverage kernels (:func:`repro.coverage.two_five_hop.two_five_hop_arrays`,
:func:`repro.coverage.three_hop.three_hop_arrays`) compute the coverage
sets of **every** clusterhead in one vectorised pass and return them here:
flat, lexicographically sorted witness tables instead of per-head Python
sets.

* ``d_head / d_ch / d_v`` — one entry per *direct* witness: clusterhead
  ``d_ch`` is a 2-hop target of ``d_head`` reachable through its
  neighbour ``d_v``.  Sorted by ``(head, ch, v)``.
* ``i_head / i_ch / i_v / i_w`` — one entry per *indirect* witness pair:
  ``i_ch`` is a 3-hop target of ``i_head`` reachable through the relay
  pair ``(i_v, i_w)``.  Sorted by ``(head, ch, v, w)``.

All values are CSR **rows** (ranks in id order), not node ids.  The array
form is what batched gateway selection consumes directly; the bridge back
to the object layer is :meth:`CoverageArrays.materialise_all`, which
produces :class:`~repro.coverage.entries.CoverageSet` objects bit-identical
to the set-based builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np

from repro.coverage.entries import CoverageSet, WitnessPair
from repro.graph.csr import CSRGraph
from repro.types import CoveragePolicy, NodeId


@dataclass(frozen=True)
class CoverageArrays:
    """All clusterheads' coverage sets as flat witness tables.

    Attributes:
        csr: The network the sets were computed over.
        policy: Which coverage definition produced them.
        heads: All clusterhead rows, ascending.
        d_head, d_ch, d_v: Direct witness triples, sorted by ``(head, ch, v)``.
        i_head, i_ch, i_v, i_w: Indirect witness quads, sorted by
            ``(head, ch, v, w)``.
    """

    csr: CSRGraph
    policy: CoveragePolicy
    heads: np.ndarray
    d_head: np.ndarray
    d_ch: np.ndarray
    d_v: np.ndarray
    i_head: np.ndarray
    i_ch: np.ndarray
    i_v: np.ndarray
    i_w: np.ndarray

    def materialise_all(self) -> Dict[NodeId, CoverageSet]:
        """Per-head :class:`CoverageSet` objects, keyed by head id ascending.

        Bit-identical to running the set-based coverage builder per head
        (the Hypothesis equivalence suite pins this).
        """
        ids = self.csr.ids
        head_ids = ids[self.heads].tolist()
        out: Dict[NodeId, CoverageSet] = {}
        direct_by_head = _group_triples(
            ids, self.d_head, self.d_ch, self.d_v
        )
        indirect_by_head = _group_quads(
            ids, self.i_head, self.i_ch, self.i_v, self.i_w
        )
        for h_row, h_id in zip(self.heads.tolist(), head_ids):
            direct = direct_by_head.get(h_row, {})
            indirect = indirect_by_head.get(h_row, {})
            out[h_id] = CoverageSet(
                head=h_id,
                policy=self.policy,
                c2=frozenset(direct),
                c3=frozenset(indirect),
                direct_witnesses=direct,
                indirect_witnesses=indirect,
            )
        return out


def _group_triples(
    ids: np.ndarray,
    t_head: np.ndarray,
    t_ch: np.ndarray,
    t_v: np.ndarray,
) -> Dict[int, Dict[NodeId, FrozenSet[NodeId]]]:
    """Group sorted direct triples into ``{head_row: {ch_id: {v_id, ...}}}``."""
    out: Dict[int, Dict[NodeId, FrozenSet[NodeId]]] = {}
    if t_head.shape[0] == 0:
        return out
    heads = t_head.tolist()
    chs = ids[t_ch].tolist()
    vs = ids[t_v].tolist()
    k = 0
    total = len(heads)
    while k < total:
        h, ch = heads[k], chs[k]
        j = k
        while j < total and heads[j] == h and chs[j] == ch:
            j += 1
        out.setdefault(h, {})[ch] = frozenset(vs[k:j])
        k = j
    return out


def _group_quads(
    ids: np.ndarray,
    t_head: np.ndarray,
    t_ch: np.ndarray,
    t_v: np.ndarray,
    t_w: np.ndarray,
) -> Dict[int, Dict[NodeId, FrozenSet[WitnessPair]]]:
    """Group sorted indirect quads into ``{head_row: {ch_id: {(v, w), ...}}}``."""
    out: Dict[int, Dict[NodeId, FrozenSet[WitnessPair]]] = {}
    if t_head.shape[0] == 0:
        return out
    heads = t_head.tolist()
    chs = ids[t_ch].tolist()
    vs = ids[t_v].tolist()
    ws = ids[t_w].tolist()
    k = 0
    total = len(heads)
    while k < total:
        h, ch = heads[k], chs[k]
        j = k
        while j < total and heads[j] == h and chs[j] == ch:
            j += 1
        out.setdefault(h, {})[ch] = frozenset(zip(vs[k:j], ws[k:j]))
        k = j
    return out
