"""Array-native broadcast kernels: whole frontiers instead of packet objects.

The CSR core (PR 6) made construction, clustering, coverage and gateway
selection array-native; this module does the same for the **delivery
simulation** itself, the last per-trial hot path.  Three kernels:

* :func:`flooding_rows` — blind flooding as a frontier BFS over
  ``indptr``/``indices`` gathers;
* :func:`si_rows` — SI-CDS delivery: the same BFS with forwarding
  restricted to the backbone rows;
* :func:`sd_rows` — SD-CDS delivery: per-level masked gateway selection
  (:func:`~repro.backbone.gateway_selection.select_gateways_masked`) with
  the piggyback state (origin coverage, forward sets, relay-head chains)
  held in pooled arrays.

Equivalence contract (pinned by ``tests/test_broadcast_kernels.py``):

* At ``loss == 0`` the kernels reproduce the event-engine protocols and
  the centralised reference algorithms **exactly** — same received set,
  reception times, forward nodes, forward sets and transmission counts.
* At ``loss > 0`` the kernels consume the medium's RNG stream in the
  engine's delivery order — airings chronologically, one Bernoulli draw
  per neighbour in ascending receiver order (see
  :meth:`repro.sim.medium.WirelessMedium._plan_deliveries`) — so loss
  estimates are bit-identical to the engine, draw for draw.  ``loss == 0``
  consumes **no** draws, exactly like the engine's ``_rng is None`` path.

Batched trials: disjoint scenarios stack into one block-diagonal CSR
(:func:`stack_trials`) and all three kernels run *B* broadcasts per
invocation — per-block results are identical to running the kernel on each
block alone, because every propagation rule is local to a connected
component.  Per-scenario inputs (coverage tables, backbone rows) are
memoized on the scenario cache via :func:`scenario_assets`.

Dispatch: the object-layer trial path keeps the event engine / centralised
algorithms below :data:`KERNEL_CUTOVER` nodes (paper-scale goldens stay
byte-identical); the channel/MAC path (:mod:`repro.workload.storm`,
:mod:`repro.workload.contention`) stays on the engine at every size —
contention is inherently sequential.  See ``docs/broadcast_kernels.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.backbone.gateway_selection import select_gateways_masked
from repro.broadcast.result import BroadcastResult
from repro.broadcast.sd_cds import DynamicBroadcast
from repro.coverage.arrays import CoverageArrays
from repro.coverage.three_hop import three_hop_arrays
from repro.coverage.two_five_hop import two_five_hop_arrays
from repro.errors import BroadcastError
from repro.geometry.grid import grouped_ranges
from repro.graph.csr import CSRGraph, searchsorted_membership
from repro.types import CoveragePolicy, NodeId, PruningLevel

#: Node count at which the trial paths switch from the event-engine /
#: centralised reference implementations to the array kernels.  Paper-scale
#: networks (n <= 100) stay on the reference path, keeping the regression
#: goldens byte-identical; from a few hundred nodes the kernels win by a
#: growing margin (5.55x on the broadcast stage at n=2000, batch 128:
#: ``BENCH_trials.json`` label ``broadcast-kernels-n2000-b128``).  The
#: crossover itself is not measured yet; ROADMAP item 6 re-measures it.
KERNEL_CUTOVER = 256

_EMPTY = np.empty(0, dtype=np.int64)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` for int keys via an in-place sort.

    The hot SD loop dedups mostly-distinct key arrays; a plain sort plus
    boundary scan beats ``np.unique``'s hash path there.
    """
    if a.shape[0] <= 1:
        return a
    a.sort()
    keep = np.ones(a.shape[0], dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class _SortedKeySet:
    """A growing set of int64 keys held as sorted chunks.

    Appending a sorted chunk is O(1); membership is one ``searchsorted``
    per chunk.  Once there are more than ``_MAX_CHUNKS`` chunks, the small
    ones fold into a single run while the largest chunk stays untouched —
    the SD kernel's per-step dedup sets (forward designations, relayed
    pairs) grow monotonically, and re-sorting the whole set every merge
    would dominate the kernel.
    """

    __slots__ = ("_chunks",)

    _MAX_CHUNKS = 4

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []

    def add(self, keys: np.ndarray) -> None:
        """Add a **sorted** key array, disjoint from every earlier add."""
        if keys.shape[0] == 0:
            return
        self._chunks.append(keys)
        if len(self._chunks) > self._MAX_CHUNKS:
            # Chunks are pairwise disjoint, so folding needs no dedup.
            self._chunks.sort(key=lambda c: c.shape[0], reverse=True)
            tail = np.concatenate(self._chunks[1:])
            tail.sort()
            self._chunks = [self._chunks[0], tail]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``keys`` are in the set."""
        out = np.zeros(keys.shape[0], dtype=bool)
        for chunk in self._chunks:
            out |= searchsorted_membership(chunk, keys)
        return out


# ---------------------------------------------------------------------------
# Flooding / SI-CDS
# ---------------------------------------------------------------------------


def si_rows(
    csr: CSRGraph,
    relay_mask: np.ndarray,
    source_rows: np.ndarray,
    *,
    loss: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """SI-CDS delivery: forwarding restricted to ``relay_mask`` rows.

    Protocol: sources transmit at time 0; a relay-set node forwards once,
    on its first reception; everyone else stays silent.  Unit delay.

    Args:
        csr: The network (possibly a :func:`stack_trials` union).
        relay_mask: Boolean per-row backbone membership.  Sources forward
            regardless of membership (the engine pre-marks the source).
        source_rows: One source row per connected block.
        loss: Independent per-link drop probability.
        rng: The medium's RNG; required when ``loss > 0``, never touched
            when ``loss == 0`` (the engine's contract).

    Returns:
        ``(time, forwarded)`` — per-row first-reception step (``-1``
        unreached) and per-row transmitted flag.  ``received`` is
        ``time >= 0``; transmissions equal ``forwarded.sum()`` (a node airs
        at most once).
    """
    with perf.stage("broadcast.si"):
        return _si_rows(csr, relay_mask, source_rows, loss=loss, rng=rng)


def _si_rows(
    csr: CSRGraph,
    relay_mask: np.ndarray,
    source_rows: np.ndarray,
    *,
    loss: float,
    rng: Optional[np.random.Generator],
) -> Tuple[np.ndarray, np.ndarray]:
    n = csr.num_nodes
    time = np.full(n, -1, dtype=np.int64)
    forwarded = np.zeros(n, dtype=bool)
    src = np.unique(np.asarray(source_rows, dtype=np.int64))
    time[src] = 0
    forwarded[src] = True
    if loss <= 0.0:
        # Lossless fast path: trigger order is irrelevant (no draws, and
        # reception times depend only on BFS level), so plain frontier
        # expansion suffices.
        frontier = src
        t = 0
        while frontier.shape[0]:
            flat, _ = csr.gather_rows(frontier)
            t += 1
            nv = time[flat] < 0
            time[flat[nv]] = t
            # Scatter-then-scan dedup: cheaper than uniquing the frontier's
            # (duplicate-heavy) neighbour list.
            new = np.flatnonzero(time == t)
            frontier = new[relay_mask[new]]
            forwarded[frontier] = True
        return time, forwarded
    if rng is None:
        raise ValueError("loss > 0 needs the medium's rng")
    # Lossy path: consume draws in the engine's order — airings
    # chronologically (within a step: in the order their trigger arrivals
    # were processed, i.e. by (trigger sender, receiver)), one draw per
    # neighbour in ascending receiver order.
    air = src
    t = 0
    guard = 4 * n + 8
    while air.shape[0]:
        if t > guard:
            raise BroadcastError(
                f"si kernel did not terminate within {guard} time units"
            )
        flat, cnt = csr.gather_rows(air)
        ok = rng.random(flat.shape[0]) >= loss
        x = flat[ok]
        s = np.repeat(air, cnt)[ok]
        # First-processed arrival per receiver: deliveries sort by
        # (sender, receiver) and SI senders are distinct, so the trigger
        # copy is the minimum sender per receiver.
        order = np.lexsort((s, x))
        x, s = x[order], s[order]
        first = np.ones(x.shape[0], dtype=bool)
        first[1:] = x[1:] != x[:-1]
        x0, s0 = x[first], s[first]
        fresh = time[x0] < 0
        x0, s0 = x0[fresh], s0[fresh]
        t += 1
        time[x0] = t
        relay = relay_mask[x0]
        xr, sr = x0[relay], s0[relay]
        # Relays air inline while their trigger arrival is processed:
        # next step's draw order is (trigger sender, receiver).
        air = xr[np.lexsort((xr, sr))]
        forwarded[air] = True
    return time, forwarded


def flooding_rows(
    csr: CSRGraph,
    source_rows: np.ndarray,
    *,
    loss: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Blind flooding: :func:`si_rows` with every row in the relay set."""
    with perf.stage("broadcast.flooding"):
        relay_mask = np.ones(csr.num_nodes, dtype=bool)
        return _si_rows(csr, relay_mask, source_rows, loss=loss, rng=rng)


# ---------------------------------------------------------------------------
# SD-CDS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDKernelRun:
    """Raw output of :func:`sd_rows` (all values CSR rows).

    Attributes:
        time: Per-row first-reception step; ``-1`` unreached.
        forwarded: Per-row "transmitted at least once" flag.
        tx_row: Per-row transmission count (a gateway designated by two
            heads relays twice; ``tx_row.sum()`` is the engine's
            ``transmissions`` counter).
        done_heads: Rows of clusterheads that ran gateway selection, in
            trigger order.
        fs_head / fs_gw: One entry per selected forward designation —
            head ``fs_head[k]`` designated gateway ``fs_gw[k]``.
        pt_head / pt_ch: One entry per surviving (post-pruning) coverage
            target of a triggered head.
    """

    time: np.ndarray
    forwarded: np.ndarray
    tx_row: np.ndarray
    done_heads: np.ndarray
    fs_head: np.ndarray
    fs_gw: np.ndarray
    pt_head: np.ndarray
    pt_ch: np.ndarray

    @property
    def transmissions(self) -> int:
        """Total airings — the engine's per-transmit counter."""
        return int(self.tx_row.sum())


def coverage_target_keys(cov: CoverageArrays) -> np.ndarray:
    """Sorted unique ``head * n + ch`` keys of every head's coverage set.

    ``all_targets`` of head ``h`` is the slice ``[h*n, (h+1)*n)`` — the
    SD kernel reads origin coverages (for pruning) and pruned target sets
    straight from these keys.
    """
    n = cov.csr.num_nodes
    return np.unique(
        np.concatenate([cov.d_head * n + cov.d_ch, cov.i_head * n + cov.i_ch])
    )


def sd_rows(
    csr: CSRGraph,
    head_row: np.ndarray,
    cov: CoverageArrays,
    source_rows: np.ndarray,
    *,
    pruning: PruningLevel = PruningLevel.FULL,
    cov_keys: Optional[np.ndarray] = None,
    loss: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    collect: bool = True,
) -> SDKernelRun:
    """SD-CDS delivery: dynamic per-head gateway selection, vectorised.

    Replays :func:`repro.broadcast.sd_cds.broadcast_sd` (and the
    distributed protocol) level by level: all clusterheads triggered at a
    step run one masked batch selection; member relays carry the pooled
    relay-head chains forward.  Trigger copies follow the engine's event
    order — arrivals process by ``(sender, receiver, airing)``, so per
    receiver the qualifying copy with the lowest sender (then earliest
    airing) wins.

    Args:
        csr: The network (possibly a :func:`stack_trials` union).
        head_row: Per-row clusterhead assignment.
        cov: Coverage witness tables over ``csr`` (matching the policy).
        source_rows: One source row per connected block.
        pruning: Piggyback exploitation level (paper default ``FULL``).
        cov_keys: Pre-computed :func:`coverage_target_keys` (derived when
            omitted).
        loss / rng: As in :func:`si_rows`.
        collect: Record the reporting arrays (``done_heads``, ``fs_*``,
            ``pt_*``).  Batched metric trials only consume ``time`` /
            ``forwarded`` / ``tx_row`` and pass ``False`` to skip the
            bookkeeping; delivery results are identical either way.

    Returns:
        An :class:`SDKernelRun`.

    Raises:
        BroadcastError: if propagation exceeds ``4 * n + 8`` steps.
    """
    with perf.stage("broadcast.sd"):
        return _sd_rows(
            csr, head_row, cov, source_rows,
            pruning=pruning, cov_keys=cov_keys, loss=loss, rng=rng,
            collect=collect,
        )


def _sd_rows(
    csr: CSRGraph,
    head_row: np.ndarray,
    cov: CoverageArrays,
    source_rows: np.ndarray,
    *,
    pruning: PruningLevel,
    cov_keys: Optional[np.ndarray],
    loss: float,
    rng: Optional[np.random.Generator],
    collect: bool,
) -> SDKernelRun:
    n = csr.num_nodes
    if loss > 0.0 and rng is None:
        raise ValueError("loss > 0 needs the medium's rng")
    if cov_keys is None:
        cov_keys = coverage_target_keys(cov)
    # Head h's coverage keys occupy cov_keys[cov_starts[h]:cov_starts[h+1]]
    # — resolving the bounds once replaces a per-step binary search.
    cov_starts = np.searchsorted(
        cov_keys, np.arange(n + 1, dtype=np.int64) * n
    )
    is_head = head_row == np.arange(n, dtype=head_row.dtype)
    time = np.full(n, -1, dtype=np.int64)
    forwarded = np.zeros(n, dtype=bool)
    tx_row = np.zeros(n, dtype=np.int64)
    # Heads that have not yet run gateway selection (triggered heads leave).
    head_pending = is_head.copy()
    fs_keys = _SortedKeySet()  # origin * n + gateway
    relayed = _SortedKeySet()  # x * (n + 1) + origin + 1
    # Cheap superset filter: per-row count of designations not yet acted
    # on.  Arrivals at rows with no pending designation can never qualify
    # as member relays, so the exact (origin, gateway) membership tests
    # only ever see this small subset.
    gw_pending = np.zeros(n, dtype=np.int64)
    done_parts: List[np.ndarray] = []
    fs_head_parts: List[np.ndarray] = []
    fs_gw_parts: List[np.ndarray] = []
    pt_head_parts: List[np.ndarray] = []
    pt_ch_parts: List[np.ndarray] = []

    def head_select(th_x: np.ndarray, excl_keys: np.ndarray) -> None:
        """Triggered heads ``th_x`` (sorted) select gateways and open."""
        head_pending[th_x] = False
        conn_head, _, conn_v, conn_w = select_gateways_masked(
            cov, th_x, excl_keys
        )
        keys = _sorted_unique(
            np.concatenate([
                conn_head * n + conn_v,
                (conn_head * n + conn_w)[conn_w >= 0],
            ])
        )
        fs_keys.add(keys)
        # Heads designated as gateways never member-relay (the head path
        # handles their arrivals), so keep them out of the filter.  Each
        # (origin, gateway) key is globally unique — an origin selects
        # exactly once — so this counts every designation exactly once.
        g_rows = keys % n
        np.add.at(gw_pending, g_rows[~is_head[g_rows]], 1)
        if not collect:
            return
        done_parts.append(th_x)
        fs_head_parts.append(keys // n)
        fs_gw_parts.append(g_rows)
        starts = cov_starts[th_x]
        counts = cov_starts[th_x + 1] - starts
        tkeys = cov_keys[grouped_ranges(starts, counts)]
        if excl_keys.shape[0]:
            tkeys = tkeys[~searchsorted_membership(excl_keys, tkeys)]
        pt_head_parts.append(tkeys // n)
        pt_ch_parts.append(tkeys % n)

    def exclusion_keys(
        th_x: np.ndarray, th_o: np.ndarray, pool_rows: List[np.ndarray]
    ) -> np.ndarray:
        """Per-head exclusion keys ``x * n + ch`` under ``pruning``."""
        if pruning is PruningLevel.NONE or th_x.shape[0] == 0:
            return _EMPTY
        parts: List[np.ndarray] = []
        has_o = th_o >= 0
        o_safe = np.maximum(th_o, 0)
        starts = cov_starts[o_safe]
        counts = np.where(has_o, cov_starts[o_safe + 1] - starts, 0)
        c_ch = cov_keys[grouped_ranges(starts, counts)] % n
        parts.append(np.repeat(th_x, counts) * n + c_ch)
        parts.append(th_x[has_o] * n + th_o[has_o])
        if pruning is PruningLevel.FULL and pool_rows:
            parts.extend(pool_rows)
        return _sorted_unique(np.concatenate(parts))

    # -- initiation --------------------------------------------------------
    air_s = np.unique(np.asarray(source_rows, dtype=np.int64))
    time[air_s] = 0
    forwarded[air_s] = True
    tx_row[air_s] += 1
    src_is_head = is_head[air_s]
    air_o = np.where(src_is_head, air_s, -1)
    heads0 = air_s[src_is_head]
    if heads0.shape[0]:
        head_select(heads0, _EMPTY)
    # Member sources start the relay-head chain with their own adjacent
    # clusterheads (FULL pruning only), mirroring the initial packet.
    pool_counts = np.zeros(air_s.shape[0], dtype=np.int64)
    pool_vals = _EMPTY
    if pruning is PruningLevel.FULL and (~src_is_head).any():
        flat, cnt = csr.gather_rows(air_s)
        grp = np.repeat(np.arange(air_s.shape[0], dtype=np.int64), cnt)
        sel = is_head[flat] & ~src_is_head[grp]
        pool_vals = flat[sel].astype(np.int64)
        pool_counts = np.bincount(grp[sel], minlength=air_s.shape[0])
    pool_indptr = np.zeros(air_s.shape[0] + 1, dtype=np.int64)
    np.cumsum(pool_counts, out=pool_indptr[1:])

    # -- synchronous unit-delay propagation --------------------------------
    t = 0
    guard = 4 * n + 8
    while air_s.shape[0]:
        if t > guard:
            raise BroadcastError(
                f"sd kernel did not terminate within {guard} time units"
            )
        flat, cnt = csr.gather_rows(air_s)
        a_arr = np.repeat(np.arange(air_s.shape[0], dtype=np.int64), cnt)
        if loss > 0.0:
            ok = rng.random(flat.shape[0]) >= loss  # type: ignore[union-attr]
            # int64 up front: every key product below (x * n, x * (n + 1))
            # must not wrap for union stacks where n * n exceeds int32.
            x_arr, a_arr = flat[ok].astype(np.int64), a_arr[ok]
        else:
            x_arr = flat.astype(np.int64)
        t += 1
        nv = time[x_arr] < 0
        time[x_arr[nv]] = t

        # Arrival processing order is (sender, receiver, airing seq), so
        # per receiver the first-processed copy — min (sender, airing) —
        # is the trigger.  Only two receiver classes act on their trigger
        # (undone heads and designated gateways), so the order is resolved
        # inside those small subsets instead of sorting every arrival.
        hm = head_pending[x_arr]
        xh, ah = x_arr[hm], a_arr[hm]
        if xh.shape[0]:
            sh = air_s[ah]
            horder = np.lexsort((ah, sh, xh))
            xh, sh, ah = xh[horder], sh[horder], ah[horder]
            hfirst = np.ones(xh.shape[0], dtype=bool)
            hfirst[1:] = xh[1:] != xh[:-1]
            th_x, th_s, th_a = xh[hfirst], sh[hfirst], ah[hfirst]
        else:
            th_x = th_s = th_a = _EMPTY

        # Member relays: one per (gateway, designating origin) pair, on
        # the first qualifying copy.
        cand = np.flatnonzero(gw_pending[x_arr] > 0)
        xq, aq = x_arr[cand], a_arr[cand]
        oq = air_o[aq]
        keep = oq >= 0
        xq, aq, oq = xq[keep], aq[keep], oq[keep]
        if xq.shape[0]:
            qual = fs_keys.contains(oq * n + xq)
            xq, oq, aq = xq[qual], oq[qual], aq[qual]
        if xq.shape[0]:
            qual = ~relayed.contains(xq * (n + 1) + oq + 1)
            xq, oq, aq = xq[qual], oq[qual], aq[qual]
        if xq.shape[0]:
            # Group by (x, origin); within a group the (sender, airing)
            # order picks the trigger copy.
            sq = air_s[aq]
            gkey = xq * (n + 1) + oq + 1
            gorder = np.lexsort((aq, sq, gkey))
            gkey = gkey[gorder]
            gfirst = np.ones(gkey.shape[0], dtype=bool)
            gfirst[1:] = gkey[1:] != gkey[:-1]
            pick = gorder[gfirst]
            rm_x, rm_o = xq[pick], oq[pick]
            rm_s, rm_a = sq[pick], aq[pick]
            relayed.add(gkey[gfirst])
            np.subtract.at(gw_pending, rm_x, 1)
        else:
            rm_x = rm_o = rm_s = rm_a = _EMPTY

        # Heads select against the trigger packet's exclusions.
        if th_x.shape[0]:
            th_pool: List[np.ndarray] = []
            if pruning is PruningLevel.FULL:
                p_start = pool_indptr[th_a]
                p_cnt = pool_indptr[th_a + 1] - p_start
                th_pool.append(
                    np.repeat(th_x, p_cnt) * n
                    + pool_vals[grouped_ranges(p_start, p_cnt)]
                )
            head_select(th_x, exclusion_keys(th_x, air_o[th_a], th_pool))

        # New airings, in the engine's inline order: sorted by the trigger
        # arrival's (sender, receiver, airing seq).
        ns = np.concatenate([th_x, rm_x])
        if ns.shape[0] == 0:
            break
        no = np.concatenate([th_x, rm_o])
        ts = np.concatenate([th_s, rm_s])
        ta = np.concatenate([th_a, rm_a])
        txr = np.concatenate([th_x, rm_x])
        aorder = np.lexsort((ta, txr, ts))
        new_s, new_o = ns[aorder], no[aorder]
        forwarded[new_s] = True
        np.add.at(tx_row, new_s, 1)

        # Relay airings extend their parent chain with the relay's own
        # adjacent heads; head airings restart the chain empty.
        new_cnt = np.zeros(new_s.shape[0], dtype=np.int64)
        new_vals = _EMPTY
        if pruning is PruningLevel.FULL and rm_x.shape[0]:
            rel_pos = np.flatnonzero(aorder >= th_x.shape[0])
            rel_orig = aorder[rel_pos] - th_x.shape[0]
            p_start = pool_indptr[rm_a[rel_orig]]
            p_cnt = pool_indptr[rm_a[rel_orig] + 1] - p_start
            parent = pool_vals[grouped_ranges(p_start, p_cnt)]
            nf, nc = csr.gather_rows(rm_x[rel_orig])
            hsel = is_head[nf]
            ngrp = np.repeat(rel_pos, nc)[hsel]
            pkey = _sorted_unique(
                np.concatenate([
                    np.repeat(rel_pos, p_cnt) * n + parent,
                    ngrp * n + nf[hsel],
                ])
            )
            new_vals = pkey % n
            new_cnt = np.bincount(pkey // n, minlength=new_s.shape[0])
        air_s, air_o, pool_vals = new_s, new_o, new_vals
        pool_indptr = np.zeros(air_s.shape[0] + 1, dtype=np.int64)
        np.cumsum(new_cnt, out=pool_indptr[1:])

    def _cat(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else _EMPTY

    return SDKernelRun(
        time=time,
        forwarded=forwarded,
        tx_row=tx_row,
        done_heads=_cat(done_parts),
        fs_head=_cat(fs_head_parts),
        fs_gw=_cat(fs_gw_parts),
        pt_head=_cat(pt_head_parts),
        pt_ch=_cat(pt_ch_parts),
    )


# ---------------------------------------------------------------------------
# Batched trials: block-diagonal stacking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStack:
    """*B* disjoint scenarios as one block-diagonal union CSR.

    Attributes:
        csr: The union graph; block ``b`` occupies rows
            ``[offsets[b], offsets[b + 1])``.
        offsets: ``(B + 1,)`` row offsets.
        head_row: Union per-row clusterhead assignment.
    """

    csr: CSRGraph
    offsets: np.ndarray
    head_row: np.ndarray

    @property
    def num_trials(self) -> int:
        return self.offsets.shape[0] - 1

    def per_trial_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-block count of set rows in a boolean row ``mask``."""
        return np.add.reduceat(mask.astype(np.int64), self.offsets[:-1])

    def per_trial_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-block sum of a per-row int array."""
        return np.add.reduceat(values, self.offsets[:-1])


def stack_trials(
    csrs: Sequence[CSRGraph], head_rows: Sequence[np.ndarray]
) -> TrialStack:
    """Stack per-trial CSRs block-diagonally.

    Rows of block ``b`` shift by ``offsets[b]``; ids become the identity
    (per-trial ids are recovered from the original CSRs, never from the
    union).  Running any kernel on the union equals running it per block,
    because blocks are disconnected.
    """
    offsets = np.zeros(len(csrs) + 1, dtype=np.int64)
    np.cumsum([c.num_nodes for c in csrs], out=offsets[1:])
    indptr_parts = [np.zeros(1, dtype=np.int64)]
    indices_parts: List[np.ndarray] = []
    edge_base = 0
    for b, c in enumerate(csrs):
        indptr_parts.append(c.indptr[1:].astype(np.int64) + edge_base)
        indices_parts.append(c.indices.astype(np.int64) + offsets[b])
        edge_base += c.indices.shape[0]
    union = CSRGraph(
        indptr=np.concatenate(indptr_parts),
        indices=np.concatenate(indices_parts) if indices_parts else _EMPTY,
    )
    head_row = (
        np.concatenate(
            [h.astype(np.int64) + offsets[b] for b, h in enumerate(head_rows)]
        )
        if head_rows
        else _EMPTY
    )
    return TrialStack(csr=union, offsets=offsets, head_row=head_row)


def stack_coverage(
    stack: TrialStack, covs: Sequence[CoverageArrays]
) -> CoverageArrays:
    """Stack per-trial coverage tables onto a :class:`TrialStack`.

    Offsetting rows block by block preserves each table's ``(head, ...)``
    sort (offsets strictly increase), so the concatenation is a valid
    :class:`CoverageArrays` over the union CSR.
    """
    off = stack.offsets

    def cat(field: str) -> np.ndarray:
        parts = [
            getattr(c, field).astype(np.int64) + off[b]
            for b, c in enumerate(covs)
        ]
        return np.concatenate(parts) if parts else _EMPTY

    return CoverageArrays(
        csr=stack.csr,
        policy=covs[0].policy if covs else CoveragePolicy.TWO_FIVE_HOP,
        heads=cat("heads"),
        d_head=cat("d_head"),
        d_ch=cat("d_ch"),
        d_v=cat("d_v"),
        i_head=cat("i_head"),
        i_ch=cat("i_ch"),
        i_v=cat("i_v"),
        i_w=cat("i_w"),
    )


def stack_rows(stack: TrialStack, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-trial row arrays with block offsets applied."""
    parts = [
        np.asarray(r, dtype=np.int64) + stack.offsets[b]
        for b, r in enumerate(rows)
    ]
    return np.concatenate(parts) if parts else _EMPTY


def stack_mask(stack: TrialStack, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean union-row mask from per-trial row arrays."""
    mask = np.zeros(stack.csr.num_nodes, dtype=bool)
    mask[stack_rows(stack, rows)] = True
    return mask


# ---------------------------------------------------------------------------
# Per-scenario kernel inputs, memoized on the scenario cache
# ---------------------------------------------------------------------------


class KernelAssets:
    """Array inputs of the kernels for one scenario, computed once.

    Everything here is a pure function of the clustering, so instances are
    shared across every trial that touches the same scenario (the same
    contract as the memoized clustering itself).
    """

    __slots__ = ("structure", "_cov", "_static", "_mo_rows", "_cov_keys")

    def __init__(self, structure) -> None:
        self.structure = structure
        self._cov: Dict[CoveragePolicy, CoverageArrays] = {}
        self._static: Dict[CoveragePolicy, np.ndarray] = {}
        self._mo_rows: Optional[np.ndarray] = None
        self._cov_keys: Dict[CoveragePolicy, np.ndarray] = {}

    @property
    def csr(self) -> CSRGraph:
        return self.structure.csr

    @property
    def head_row(self) -> np.ndarray:
        return np.asarray(self.structure.head_row, dtype=np.int64)

    def coverage(self, policy: CoveragePolicy) -> CoverageArrays:
        """Witness tables for ``policy`` (memoized)."""
        cov = self._cov.get(policy)
        if cov is None:
            with perf.stage("coverage"):
                builder = (
                    two_five_hop_arrays
                    if policy is CoveragePolicy.TWO_FIVE_HOP
                    else three_hop_arrays
                )
                cov = builder(self.csr, self.head_row)
            self._cov[policy] = cov
        return cov

    def coverage_keys(self, policy: CoveragePolicy) -> np.ndarray:
        """:func:`coverage_target_keys` for ``policy`` (memoized)."""
        keys = self._cov_keys.get(policy)
        if keys is None:
            keys = coverage_target_keys(self.coverage(policy))
            self._cov_keys[policy] = keys
        return keys

    def static_rows(self, policy: CoveragePolicy) -> np.ndarray:
        """Static backbone rows (heads plus gateways) for ``policy``."""
        rows = self._static.get(policy)
        if rows is None:
            from repro.backbone.gateway_selection import select_gateways_batch

            with perf.stage("selection"):
                rows = select_gateways_batch(
                    self.coverage(policy)
                ).backbone_rows()
            self._static[policy] = rows
        return rows

    def mo_rows(self) -> np.ndarray:
        """MO_CDS backbone rows: per-target lowest-witness selection.

        The tables sort by ``(head, ch, v[, w])``, so the first row of
        each ``(head, ch)`` group is exactly the deterministic choice of
        :func:`repro.backbone.mo_cds._per_target_selection` — the lowest
        connector for a 2-hop target, the lexicographically smallest relay
        pair for a 3-hop target.
        """
        if self._mo_rows is None:
            cov = self.coverage(CoveragePolicy.THREE_HOP)
            n = self.csr.num_nodes
            with perf.stage("selection"):
                parts = [cov.heads]
                d_pair = cov.d_head * n + cov.d_ch
                if d_pair.shape[0]:
                    firstd = np.ones(d_pair.shape[0], dtype=bool)
                    firstd[1:] = d_pair[1:] != d_pair[:-1]
                    parts.append(cov.d_v[firstd])
                i_pair = cov.i_head * n + cov.i_ch
                if i_pair.shape[0]:
                    firsti = np.ones(i_pair.shape[0], dtype=bool)
                    firsti[1:] = i_pair[1:] != i_pair[:-1]
                    parts.append(cov.i_v[firsti])
                    parts.append(cov.i_w[firsti])
                self._mo_rows = np.unique(np.concatenate(parts))
        return self._mo_rows

    def source_row(self, source: NodeId) -> int:
        """Row of node id ``source``."""
        return self.csr.row_of(source)


def scenario_assets(scenario) -> KernelAssets:
    """The memoized :class:`KernelAssets` of a cached scenario.

    A benign race mirrors ``Scenario.clustering``: two threads may build
    the assets concurrently; both results are identical and one wins.
    """
    assets = scenario._kernel_assets
    if assets is None:
        assets = KernelAssets(scenario.clustering)
        scenario._kernel_assets = assets
    return assets


# ---------------------------------------------------------------------------
# Single-trial bridges back to the object layer
# ---------------------------------------------------------------------------


def _reception_mapping(
    csr: CSRGraph, time: np.ndarray
) -> Dict[NodeId, int]:
    rows = np.flatnonzero(time >= 0)
    ids = csr.ids
    return dict(zip(ids[rows].tolist(), time[rows].tolist()))


def flooding_result(csr: CSRGraph, source: NodeId) -> BroadcastResult:
    """Kernel-backed :func:`repro.broadcast.flooding.blind_flooding`."""
    src = csr.row_of(source)
    time, _ = flooding_rows(csr, np.asarray([src]))
    reception = _reception_mapping(csr, time)
    received = frozenset(reception)
    return BroadcastResult(
        source=source,
        algorithm="blind-flooding",
        forward_nodes=received,
        received=received,
        reception_time=reception,
        transmissions=len(received),
    )


def si_result(
    csr: CSRGraph,
    backbone_rows: np.ndarray,
    source: NodeId,
    *,
    algorithm: str = "si-cds",
    loss: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> BroadcastResult:
    """Kernel-backed SI-CDS broadcast over explicit backbone rows."""
    src = csr.row_of(source)
    relay_mask = np.zeros(csr.num_nodes, dtype=bool)
    relay_mask[np.asarray(backbone_rows, dtype=np.int64)] = True
    time, fwd = si_rows(
        csr, relay_mask, np.asarray([src]), loss=loss, rng=rng
    )
    reception = _reception_mapping(csr, time)
    forward = frozenset(csr.ids[np.flatnonzero(fwd)].tolist())
    return BroadcastResult(
        source=source,
        algorithm=algorithm,
        forward_nodes=forward,
        received=frozenset(reception),
        reception_time=reception,
        transmissions=len(forward),
    )


def sd_result(
    assets: KernelAssets,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    pruning: PruningLevel = PruningLevel.FULL,
    loss: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> DynamicBroadcast:
    """Kernel-backed :func:`repro.broadcast.sd_cds.broadcast_sd`."""
    csr = assets.csr
    run = sd_rows(
        csr,
        assets.head_row,
        assets.coverage(policy),
        np.asarray([assets.source_row(source)]),
        pruning=pruning,
        cov_keys=assets.coverage_keys(policy),
        loss=loss,
        rng=rng,
    )
    ids = csr.ids
    reception = _reception_mapping(csr, run.time)
    forward = frozenset(ids[np.flatnonzero(run.forwarded)].tolist())
    forward_sets: Dict[NodeId, FrozenSet[NodeId]] = {
        int(ids[h]): frozenset() for h in run.done_heads.tolist()
    }
    fs_h = ids[run.fs_head]
    fs_g = ids[run.fs_gw]
    for h, g in zip(fs_h.tolist(), fs_g.tolist()):
        forward_sets[h] = forward_sets[h] | {g}
    pruned: Dict[NodeId, FrozenSet[NodeId]] = {
        int(ids[h]): frozenset() for h in run.done_heads.tolist()
    }
    pt_h = ids[run.pt_head]
    pt_c = ids[run.pt_ch]
    for h, c in zip(pt_h.tolist(), pt_c.tolist()):
        pruned[h] = pruned[h] | {c}
    result = BroadcastResult(
        source=source,
        algorithm=f"sd-cds[{policy.label},{pruning.value}]",
        forward_nodes=forward,
        received=frozenset(reception),
        reception_time=reception,
        transmissions=run.transmissions,
    )
    return DynamicBroadcast(
        result=result,
        forward_sets=forward_sets,
        pruned_targets=pruned,
        pruning=pruning,
    )
