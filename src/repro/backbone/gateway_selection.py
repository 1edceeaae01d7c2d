"""The paper's greedy gateway-selection heuristic (Section 3).

Given a clusterhead ``u``'s coverage set, select gateways connecting ``u`` to
every target clusterhead:

1. While uncovered 2-hop targets remain, pick the neighbour ``v`` that
   **directly covers** the most remaining ``C2`` targets; break ties by the
   number of remaining ``C3`` targets ``v`` **indirectly covers** (via a
   ``(v, w)`` witness pair), then by lowest node id.  Selecting ``v`` covers
   its direct targets; any ``C3`` target with a ``(v, w)`` witness is covered
   too, and the corresponding ``w`` (lowest id among ``v``'s partners for
   that target) is selected as well.
2. For each ``C3`` target still uncovered, select a witness pair ``(v, w)``.
   The paper does not fix the choice; we prefer pairs reusing
   already-selected gateways (fewest new nodes), breaking ties
   lexicographically — deterministic and never worse than an arbitrary pick.

The same function serves the static backbone (full coverage set) and the
dynamic backbone (coverage set pruned to the remaining targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro import perf
from repro.coverage.arrays import CoverageArrays
from repro.coverage.entries import CoverageSet
from repro.errors import BackboneError
from repro.geometry.grid import grouped_ranges
from repro.graph.csr import searchsorted_membership, sorted_unique
from repro.types import NodeId


@dataclass(frozen=True)
class GatewaySelection:
    """Outcome of gateway selection for one clusterhead.

    Attributes:
        head: The selecting clusterhead ``u``.
        gateways: All selected gateway node ids (first- and second-hop
            relays together).
        connectors: For each covered target clusterhead, the relay chain
            from ``u``: ``(v,)`` for a 2-hop target, ``(v, w)`` for a 3-hop
            target.
    """

    head: NodeId
    gateways: FrozenSet[NodeId]
    connectors: Mapping[NodeId, Tuple[NodeId, ...]]

    @property
    def num_gateways(self) -> int:
        """Number of distinct gateways selected."""
        return len(self.gateways)

    def covered_targets(self) -> FrozenSet[NodeId]:
        """The clusterheads this selection connects ``head`` to."""
        return frozenset(self.connectors)


@perf.timed("selection")
def select_gateways(
    coverage: CoverageSet,
    targets: Optional[Iterable[NodeId]] = None,
) -> GatewaySelection:
    """Run the greedy heuristic for ``coverage.head``.

    Args:
        coverage: The clusterhead's coverage set (with witnesses).
        targets: Restrict coverage obligations to these clusterheads (the
            dynamic backbone passes its pruned target set).  Defaults to the
            full coverage set.  Targets outside the coverage set are ignored
            — the caller's pruning can only shrink obligations.

    Returns:
        The :class:`GatewaySelection`.

    Raises:
        BackboneError: if some target has no witness (cannot happen for
            coverage sets produced by this library; guards corrupted input).
    """
    c2, c3 = coverage.c2, coverage.c3
    if targets is not None:
        # The obligations of ``coverage.restricted(targets)``, unbuilt.
        targets = frozenset(targets)
        c2, c3 = c2 & targets, c3 & targets

    remaining2: Set[NodeId] = set(c2)
    remaining3: Set[NodeId] = set(c3)
    gateways: Set[NodeId] = set()
    connectors: Dict[NodeId, Tuple[NodeId, ...]] = {}

    # Invert the targets' witness maps around candidate first-hop neighbours.
    direct_of: Dict[NodeId, Set[NodeId]] = {}
    for ch in c2:
        for v in coverage.direct_witnesses[ch]:
            direct_of.setdefault(v, set()).add(ch)
    indirect_of: Dict[NodeId, Dict[NodeId, Set[NodeId]]] = {}
    for ch in c3:
        for v, w in coverage.indirect_witnesses[ch]:
            indirect_of.setdefault(v, {}).setdefault(ch, set()).add(w)

    # Hoisted once: the C3 targets each first-hop candidate can absorb.
    indirect_targets: Dict[NodeId, FrozenSet[NodeId]] = {
        v: frozenset(chs) for v, chs in indirect_of.items()
    }

    # Phase 1: greedy direct coverage of C2, absorbing C3 targets en route.
    while remaining2:
        best_v: Optional[NodeId] = None
        best_key: Tuple[int, int, int] = (0, 0, 0)
        for v, direct in direct_of.items():
            gain2 = len(direct & remaining2)
            if gain2 == 0:
                continue
            gain3 = len(indirect_targets.get(v, frozenset()) & remaining3)
            key = (gain2, gain3, -v)
            if best_v is None or key > best_key:
                best_v, best_key = v, key
        if best_v is None:
            raise BackboneError(
                f"head {coverage.head}: 2-hop targets {sorted(remaining2)} "
                f"have no remaining witness"
            )
        gateways.add(best_v)
        for ch in direct_of[best_v] & remaining2:
            connectors[ch] = (best_v,)
        remaining2 -= direct_of[best_v]
        for ch, ws in indirect_of.get(best_v, {}).items():
            if ch in remaining3:
                w = min(ws)
                gateways.add(w)
                connectors[ch] = (best_v, w)
                remaining3.discard(ch)

    # Phase 2: cover the leftover C3 targets with relay pairs, preferring
    # pairs that reuse already-selected gateways.
    for ch in sorted(remaining3):
        pairs = coverage.indirect_witnesses[ch]

        def pair_cost(pair: Tuple[NodeId, NodeId]) -> Tuple[int, NodeId, NodeId]:
            v, w = pair
            new = (v not in gateways) + (w not in gateways)
            return (new, v, w)

        v, w = min(pairs, key=pair_cost)
        gateways.add(v)
        gateways.add(w)
        connectors[ch] = (v, w)

    return GatewaySelection(
        head=coverage.head,
        gateways=frozenset(gateways),
        connectors=connectors,
    )


@dataclass(frozen=True)
class BatchGatewaySelection:
    """Gateway selections of **all** clusterheads, in array form.

    One entry per covered target: head ``conn_head`` reaches clusterhead
    ``conn_ch`` through relay ``conn_v`` (and second relay ``conn_w``;
    ``-1`` marks a 2-hop target with no second relay).  All values are CSR
    rows of ``cov.csr``.
    """

    cov: CoverageArrays
    conn_head: np.ndarray
    conn_ch: np.ndarray
    conn_v: np.ndarray
    conn_w: np.ndarray

    def gateway_rows(self) -> np.ndarray:
        """All selected gateway rows (union over heads), ascending."""
        return np.unique(
            np.concatenate([self.conn_v, self.conn_w[self.conn_w >= 0]])
        )

    def backbone_rows(self) -> np.ndarray:
        """The backbone node set — clusterheads plus gateways — as rows."""
        return np.unique(np.concatenate([self.cov.heads, self.gateway_rows()]))

    def materialise_all(self) -> Dict[NodeId, GatewaySelection]:
        """Per-head :class:`GatewaySelection`, keyed by head id ascending.

        Bit-identical to :func:`select_gateways` over the materialised
        coverage sets (every selected gateway relays at least one
        connector, so the gateway set is the union of connector relays).
        """
        ids = self.cov.csr.ids
        order = np.argsort(self.conn_head, kind="stable")
        heads = self.conn_head[order].tolist()
        chs = ids[self.conn_ch[order]].tolist()
        vs = ids[self.conn_v[order]].tolist()
        ws = self.conn_w[order]
        w_ids = np.where(ws >= 0, ids[np.maximum(ws, 0)], -1).tolist()
        per_head: Dict[int, Dict[NodeId, Tuple[NodeId, ...]]] = {}
        for h, ch, v, w in zip(heads, chs, vs, w_ids):
            per_head.setdefault(h, {})[ch] = (v,) if w < 0 else (v, w)
        out: Dict[NodeId, GatewaySelection] = {}
        head_ids = ids[self.cov.heads].tolist()
        for h_row, h_id in zip(self.cov.heads.tolist(), head_ids):
            connectors = per_head.get(h_row, {})
            gateways: Set[NodeId] = set()
            for relays in connectors.values():
                gateways.update(relays)
            out[h_id] = GatewaySelection(
                head=h_id,
                gateways=frozenset(gateways),
                connectors=connectors,
            )
        return out


def _sorted_unique_inverse(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for non-decreasing input."""
    if keys.shape[0] == 0:
        return keys, np.empty(0, dtype=np.int64)
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], np.cumsum(first) - 1


def _unique_inverse(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` via a stable argsort.

    Radix-sorts the integer keys instead of taking numpy's hash-table
    path, whose fixed overhead dominates on per-tick masked selections.
    """
    if keys.shape[0] == 0:
        return keys, np.empty(0, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    first = np.ones(sk.shape[0], dtype=bool)
    first[1:] = sk[1:] != sk[:-1]
    inverse = np.empty(sk.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return sk[first], inverse


def _sort_pairs(
    key: np.ndarray, w: np.ndarray, key_span: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs with ``key < key_span`` and ``w < n``, sorted by ``(key, w)``:
    one packed int64 sort while ``key_span * n < 2**62``, else (the packed
    key could wrap) an order-identical lexsort."""
    if key_span * n < 2**62:
        packed = np.sort(key * n + w)
        return packed // n, packed % n
    order = np.lexsort((w, key))
    return key[order], w[order]


def _select_from_tables(
    ids: np.ndarray,
    n: int,
    d_head: np.ndarray,
    d_ch: np.ndarray,
    d_v: np.ndarray,
    i_head: np.ndarray,
    i_ch: np.ndarray,
    i_v: np.ndarray,
    i_w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step greedy selection over witness tables sorted by (head, ...).

    The shared core of :func:`select_gateways_batch` (full tables) and
    :func:`select_gateways_masked` (tables sliced to triggered heads with
    excluded targets dropped).  Returns the connector columns
    ``(conn_head, conn_ch, conn_v, conn_w)``; ``conn_w == -1`` marks a
    2-hop target.
    """
    # Slot tables: unique (head, ch) targets and unique (head, v) first-hop
    # candidates, with every witness row mapped onto its slots.  The
    # witness tables are sorted by (head, ch, ...), so the (head, ch) keys
    # are non-decreasing and uniques reduce to boundary detection.
    t2_keys, d_t2 = _sorted_unique_inverse(d_head * n + d_ch)
    c_keys, d_c = _unique_inverse(d_head * n + d_v)
    cand_head = c_keys // n
    cand_v = c_keys % n
    t3_keys, i_t3 = _sorted_unique_inverse(i_head * n + i_ch)
    n_cand = c_keys.shape[0]
    n_t3 = t3_keys.shape[0]

    # Absorption table: for every (candidate, 3-hop target) pair reachable
    # through some (v, w) witness, the lowest second relay w.  Only
    # candidates that also appear in the direct table matter — phase 1
    # never selects a pure-indirect neighbour.
    i_cand = np.searchsorted(c_keys, i_head * n + i_v)
    if n_cand:
        i_cand_c = np.minimum(i_cand, n_cand - 1)
        in_cand = c_keys[i_cand_c] == i_head * n + i_v
    else:
        i_cand_c = i_cand
        in_cand = np.zeros(i_cand.shape[0], dtype=bool)
    u_key = i_cand_c[in_cand] * max(n_t3, 1) + i_t3[in_cand]
    u_key, u_w = _sort_pairs(u_key, i_w[in_cand], n_cand * max(n_t3, 1), n)
    first = np.ones(u_key.shape[0], dtype=bool)
    first[1:] = u_key[1:] != u_key[:-1]
    u3_c = u_key[first] // max(n_t3, 1)
    u3_t = u_key[first] % max(n_t3, 1)
    u3_w = u_w[first]

    rem2 = np.ones(t2_keys.shape[0], dtype=bool)
    rem3 = np.ones(n_t3, dtype=bool)
    ch_parts: List[np.ndarray] = []
    cc_parts: List[np.ndarray] = []
    cv_parts: List[np.ndarray] = []
    cw_parts: List[np.ndarray] = []

    if n_cand:
        # Candidate slots are grouped by head (keys sort by head first),
        # so segment starts are just the boundaries of the sorted column.
        seg_first = np.ones(n_cand, dtype=bool)
        seg_first[1:] = cand_head[1:] != cand_head[:-1]
        seg_starts = np.flatnonzero(seg_first)
        slots = np.arange(n_cand, dtype=np.int64)
        seg_counts = np.diff(np.append(seg_starts, n_cand))
        while True:
            live = rem2[d_t2]
            gain2 = np.bincount(d_c[live], minlength=n_cand)
            if not gain2.any():
                break
            gain3 = np.bincount(u3_c[rem3[u3_t]], minlength=n_cand)
            # Segmented argmax of (gain2, gain3, -v) per head; candidates
            # ascend by v within a segment, so "first position among ties"
            # is the lowest id.
            m2 = np.repeat(np.maximum.reduceat(gain2, seg_starts), seg_counts)
            tie = (gain2 == m2) & (gain2 > 0)
            g3 = np.where(tie, gain3, -1)
            m3 = np.repeat(np.maximum.reduceat(g3, seg_starts), seg_counts)
            pos = np.where(tie & (g3 == m3), slots, n_cand)
            picked = np.minimum.reduceat(pos, seg_starts)
            picked = picked[picked < n_cand]
            pick_mask = np.zeros(n_cand, dtype=bool)
            pick_mask[picked] = True
            # Cover the picked candidates' remaining direct targets ...
            covered = pick_mask[d_c] & rem2[d_t2]
            ch_parts.append(d_head[covered])
            cc_parts.append(d_ch[covered])
            cv_parts.append(d_v[covered])
            cw_parts.append(np.full(int(covered.sum()), -1, dtype=np.int64))
            rem2[d_t2[covered]] = False
            # ... and absorb any 3-hop target they indirectly witness.
            absorbed = pick_mask[u3_c] & rem3[u3_t]
            ch_parts.append(t3_keys[u3_t[absorbed]] // n)
            cc_parts.append(t3_keys[u3_t[absorbed]] % n)
            cv_parts.append(cand_v[u3_c[absorbed]])
            cw_parts.append(u3_w[absorbed])
            rem3[u3_t[absorbed]] = False
    if rem2.any():
        bad = int(np.flatnonzero(rem2)[0])
        head_id = int(ids[t2_keys[bad] // n])
        raise BackboneError(
            f"head {head_id}: some 2-hop targets have no remaining witness"
        )

    # Phase 2: leftover 3-hop targets, ascending (head, ch) — mirrors the
    # sorted() walk of the set-based code head by head.  The sequential
    # dependency (the gateway set grows after each pick) is *within* a
    # head only, so round ``k`` handles every head's ``k``-th leftover at
    # once: a segmented min over keys packed as ``miss*n² + v*n + w``
    # reproduces the lexicographic order ``((v∉s)+(w∉s), v, w)`` exactly.
    leftover = np.flatnonzero(rem3)
    if leftover.size:
        i_hc = i_head * n + i_ch
        starts = np.searchsorted(i_hc, t3_keys[leftover])
        ends = np.searchsorted(i_hc, t3_keys[leftover] + 1)
        lo_head = t3_keys[leftover] // n
        # Already-selected gateway keys (head*n + member), sorted.
        sh = np.concatenate(ch_parts) if ch_parts else np.empty(0, np.int64)
        sv = np.concatenate(cv_parts) if cv_parts else np.empty(0, np.int64)
        sw = np.concatenate(cw_parts) if cw_parts else np.empty(0, np.int64)
        skeys = sorted_unique(np.concatenate(
            [sh * n + sv, sh[sw >= 0] * n + sw[sw >= 0]]
        ))
        m = leftover.shape[0]
        new_seg = np.ones(m, dtype=bool)
        new_seg[1:] = lo_head[1:] != lo_head[:-1]
        seg_first = np.flatnonzero(new_seg)
        rank = np.arange(m) - seg_first[np.cumsum(new_seg) - 1]
        nsq = n * n
        for k in range(int(rank.max()) + 1):
            cur = np.flatnonzero(rank == k)
            counts = ends[cur] - starts[cur]
            off = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )
            rows = (np.arange(off[-1]) - np.repeat(off[:-1], counts)
                    + np.repeat(starts[cur], counts))
            v, w = i_v[rows], i_w[rows]
            hh = np.repeat(lo_head[cur], counts)
            miss = (
                (~searchsorted_membership(skeys, hh * n + v)).astype(np.int64)
                + ~searchsorted_membership(skeys, hh * n + w)
            )
            best = np.minimum.reduceat(miss * nsq + v * n + w, off[:-1])
            bv, bw = (best % nsq) // n, best % n
            ch_parts.append(lo_head[cur])
            cc_parts.append(t3_keys[leftover[cur]] % n)
            cv_parts.append(bv)
            cw_parts.append(bw)
            skeys = sorted_unique(np.concatenate(
                [skeys, lo_head[cur] * n + bv, lo_head[cur] * n + bw]
            ))

    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(ch_parts) if ch_parts else empty,
        np.concatenate(cc_parts) if cc_parts else empty,
        np.concatenate(cv_parts) if cv_parts else empty,
        np.concatenate(cw_parts) if cw_parts else empty,
    )


def select_gateways_batch(cov: CoverageArrays) -> BatchGatewaySelection:
    """Run the greedy heuristic for **every** clusterhead at once.

    The per-head greedy loop of :func:`select_gateways` vectorises across
    heads: each iteration picks, for every head that still has uncovered
    2-hop targets, its best first-hop candidate — largest direct gain,
    then largest indirect gain, then lowest row — with segmented
    ``reduceat`` passes over the candidate table, and covers/absorbs the
    corresponding targets in bulk.  Heads are independent, so running
    their iterations in lock-step changes nothing.  Phase 2 (leftover
    3-hop targets) runs round-by-round — round ``k`` picks every head's
    ``k``-th leftover with a segmented min — which is exactly the
    set-based code's per-head sequential walk, since heads never share
    gateway sets.

    Args:
        cov: Batched coverage sets from the CSR coverage kernels.

    Returns:
        The selections in array form; materialising them per head is
        bit-identical to :func:`select_gateways` on each head's
        :class:`~repro.coverage.entries.CoverageSet`.

    Raises:
        BackboneError: if some 2-hop target has no witness (guards
            corrupted input, as in :func:`select_gateways`).
    """
    conn_head, conn_ch, conn_v, conn_w = _select_from_tables(
        cov.csr.ids,
        cov.csr.num_nodes,
        cov.d_head,
        cov.d_ch,
        cov.d_v,
        cov.i_head,
        cov.i_ch,
        cov.i_v,
        cov.i_w,
    )
    return BatchGatewaySelection(
        cov=cov,
        conn_head=conn_head,
        conn_ch=conn_ch,
        conn_v=conn_v,
        conn_w=conn_w,
    )


def _rows_for_heads(table_head: np.ndarray, head_rows: np.ndarray) -> np.ndarray:
    """Flat indices of the table rows belonging to ``head_rows``.

    ``table_head`` is the (non-decreasing) head column of a witness table;
    ``head_rows`` must be sorted ascending so the gathered rows stay in
    (head, ...) order.
    """
    starts = np.searchsorted(table_head, head_rows)
    counts = np.searchsorted(table_head, head_rows + 1) - starts
    return grouped_ranges(starts, counts)


@perf.timed("selection")
def select_gateways_masked(
    cov: CoverageArrays,
    head_rows: np.ndarray,
    excl_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Selections for ``head_rows`` only, with some targets excluded.

    Attributed to the ``selection`` perf stage like :func:`select_gateways`
    — the SD broadcast kernel calls this mid-delivery, and the stage split
    must match the reference path's.

    Equivalent to running :func:`select_gateways` per head on
    ``coverage.restricted(all_targets - exclusions)``: dropping a target's
    witness rows before selection is exactly what ``restricted`` does to
    the per-head coverage set.  The SD-CDS kernel calls this once per
    propagation level for all heads triggered at that step.

    Args:
        cov: Batched coverage sets over the (possibly stacked) CSR.
        head_rows: Triggered head rows, sorted ascending.
        excl_keys: Sorted ``head * n + ch`` keys (rows) of the excluded
            (head, target) pairs — each head's exclusion set, flattened.

    Returns:
        Connector columns ``(conn_head, conn_ch, conn_v, conn_w)`` with
        ``conn_w == -1`` marking 2-hop targets; each head's gateway set is
        the union of its connector relays.
    """
    n = cov.csr.num_nodes
    d_sel = _rows_for_heads(cov.d_head, head_rows)
    i_sel = _rows_for_heads(cov.i_head, head_rows)
    d_head, d_ch, d_v = cov.d_head[d_sel], cov.d_ch[d_sel], cov.d_v[d_sel]
    i_head, i_ch = cov.i_head[i_sel], cov.i_ch[i_sel]
    i_v, i_w = cov.i_v[i_sel], cov.i_w[i_sel]
    if excl_keys.shape[0]:
        keep = ~searchsorted_membership(excl_keys, d_head * n + d_ch)
        d_head, d_ch, d_v = d_head[keep], d_ch[keep], d_v[keep]
        keep = ~searchsorted_membership(excl_keys, i_head * n + i_ch)
        i_head, i_ch = i_head[keep], i_ch[keep]
        i_v, i_w = i_v[keep], i_w[keep]
    return _select_from_tables(
        cov.csr.ids, n, d_head, d_ch, d_v, i_head, i_ch, i_v, i_w
    )
