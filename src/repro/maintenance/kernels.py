"""Array-native mobility maintenance: the per-tick kernel session.

The object-layer :class:`~repro.maintenance.session.MobilitySession`
(``kernel=False``) re-derives the backbone each tick from scratch over
dict/set graphs.  That is fine at paper scale and unusable at n >= 10k.
This module runs the same per-tick pipeline entirely on arrays:

1. **step** — the mobility model advances all ``(n, 2)`` positions at
   once; an :class:`~repro.geometry.grid.IncrementalGrid` re-bins only
   the cell-crossing nodes and repairs its cell-sorted order in place.
2. **delta** — the 5-stencil pair sweep runs restricted to the dirty
   cells, the result is diffed (sorted int64 key sets) against the edges
   previously incident to moved nodes, and the appeared/vanished edges
   are merged into the :class:`~repro.graph.csr.CSRGraph` via
   :func:`~repro.graph.csr.apply_edge_delta` — no full rebuild.
3. **repair** — :func:`~repro.cluster.lowest_id.repair_lowest_id_rows`
   re-evaluates the lowest-ID fixpoint over the affected ball only;
   coverage and gateway selection are then recomputed for exactly the
   heads within two hops of any changed edge or role
   (:func:`~repro.coverage.two_five_hop.two_five_hop_arrays_masked` +
   :func:`~repro.backbone.gateway_selection.select_gateways_masked`) and
   spliced into the retained witness/connector tables.

Every tick's clustering, coverage sets and selections are bit-identical
to the from-scratch oracle ``MobilitySession(kernel=False)``
(property-tested in ``tests/test_mobility_kernels.py``); only the work
done is local.  The torus geometry keeps the exact semantics through a
dense distance diff (the same fallback the static builder uses), so the
kernels stay valid for bordered *and* wrapped areas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import perf
from repro.backbone.gateway_selection import (
    BatchGatewaySelection,
    select_gateways_batch,
    select_gateways_masked,
)
from repro.backbone.static_backbone import Backbone
from repro.cluster.lowest_id import lowest_id_rows, repair_lowest_id_rows
from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.two_five_hop import (
    two_five_hop_arrays,
    two_five_hop_arrays_masked,
)
from repro.errors import ConfigurationError, GeometryError
from repro.geometry.area import Area
from repro.geometry.grid import IncrementalGrid, grouped_ranges
from repro.geometry.mobility import MobilityModel
from repro.graph.csr import (
    CSRGraph,
    apply_edge_delta,
    csr_from_positions,
    mask_unique_rows,
    searchsorted_membership,
    sorted_unique,
)
from repro.graph.network import Network
from repro.types import CoveragePolicy, NodeId


@dataclass(frozen=True, slots=True)
class KernelTickReport:
    """Churn and repair-locality counters for one kernel-session tick.

    All node references are CSR rows of the session's graph; the
    materialising accessors of :class:`KernelMobilitySession` translate to
    node ids when the object layer needs them.

    Attributes:
        time: Session time after the tick.
        link_changes: Undirected edges that appeared plus disappeared.
        reevaluated: Rows whose clustering rule was re-run (the affected
            ball — the kernel's locality measure).
        flipped: Rows whose head status changed.
        heads_gained / heads_lost: The flip split by direction.
        reassigned: Rows (non-head before and after) whose head changed.
        dirty_heads: Heads whose coverage/selection was recomputed.
        gateways_gained / gateways_lost: Gateway-set turnover.
        resignalling: Surviving heads whose coverage set or gateway
            selection changed (the CH_HOP/GATEWAY re-signalling proxy).
        step_seconds / delta_seconds / repair_seconds: Wall clock of the
            three kernel stages for this tick.
        connected: Whether the snapshot is connected (``None`` when the
            session runs with ``connectivity=False``).
    """

    time: float
    link_changes: int
    reevaluated: int
    flipped: int
    heads_gained: int
    heads_lost: int
    reassigned: int
    dirty_heads: int
    gateways_gained: int
    gateways_lost: int
    resignalling: int
    step_seconds: float
    delta_seconds: float
    repair_seconds: float
    connected: Optional[bool]


def _canonical_keys(csr: CSRGraph) -> np.ndarray:
    """Sorted unique canonical ``min * n + max`` keys of all edges."""
    n = csr.num_nodes
    keys = csr.edge_keys()
    src, dst = keys // n, keys % n
    return np.sort(src[src < dst] * n + dst[src < dst])


def _setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b`` for sorted unique int64 arrays."""
    return a[~searchsorted_membership(b, a)]


def _table_rows_for_heads(
    table_head: np.ndarray, head_rows: np.ndarray
) -> np.ndarray:
    """Flat indices of a head-sorted table's rows for ``head_rows``."""
    starts = np.searchsorted(table_head, head_rows)
    counts = np.searchsorted(table_head, head_rows + 1) - starts
    return grouped_ranges(starts, counts)


def _unchanged_slice_heads(
    old_cols: Tuple[np.ndarray, ...],
    old_head: np.ndarray,
    new_cols: Tuple[np.ndarray, ...],
    new_head: np.ndarray,
    heads: np.ndarray,
) -> np.ndarray:
    """The ``heads`` whose table slice is identical in both tables.

    Both tables are head-sorted with the same deterministic within-head
    row order, so two equal slices are elementwise equal — compare row
    counts per head first, then the aligned column values, and reduce any
    mismatch back to its head with one ``logical_or.reduceat``.
    """
    o_start = np.searchsorted(old_head, heads)
    o_count = np.searchsorted(old_head, heads + 1) - o_start
    n_start = np.searchsorted(new_head, heads)
    n_count = np.searchsorted(new_head, heads + 1) - n_start
    same = o_count == n_count
    cand = heads[same]
    if cand.size == 0:
        return cand
    counts = o_count[same]
    o_idx = grouped_ranges(o_start[same], counts)
    n_idx = grouped_ranges(n_start[same], counts)
    mismatch = np.zeros(o_idx.shape[0], dtype=bool)
    for old_col, new_col in zip(old_cols, new_cols):
        mismatch |= old_col[o_idx] != new_col[n_idx]
    offsets = np.zeros(cand.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    changed = np.zeros(cand.shape[0], dtype=bool)
    nonempty = counts > 0
    if mismatch.size:
        changed[nonempty] = np.logical_or.reduceat(
            mismatch, offsets[:-1][nonempty]
        )
    return cand[~changed]


def _splice_by_head(
    old_cols: Tuple[np.ndarray, ...],
    old_head: np.ndarray,
    drop_heads: np.ndarray,
    new_cols: Tuple[np.ndarray, ...],
    new_head: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Replace all rows of ``drop_heads`` with the new rows, order kept.

    Both tables are sorted with the head column as the primary key and the
    surviving/new head groups are disjoint, so a merge keyed on the head
    column alone splices the new groups into place — the classic
    two-sorted-array merge, no re-sort of the retained rows.
    """
    keep = ~searchsorted_membership(drop_heads, old_head)
    kept_head = old_head[keep]
    out: List[np.ndarray] = []
    k = np.arange(kept_head.shape[0], dtype=np.int64) + np.searchsorted(
        new_head, kept_head
    )
    m = np.arange(new_head.shape[0], dtype=np.int64) + np.searchsorted(
        kept_head, new_head, side="right"
    )
    total = kept_head.shape[0] + new_head.shape[0]
    for old_col, new_col in zip(old_cols, new_cols):
        col = np.empty(total, dtype=np.int64)
        col[k] = old_col[keep]
        col[m] = new_col
        out.append(col)
    return tuple(out)


class KernelMobilitySession:
    """Maintain clustering + backbone under mobility, array-native.

    The drop-in hot path behind
    :class:`~repro.maintenance.session.MobilitySession` above the CSR
    cutover, and the engine of the 100k-node mobility workload.  Holds
    positions, adjacency, head assignment, witness tables and connector
    tables as arrays between ticks and repairs all of them per tick; the
    materialising accessors (:meth:`network`, :meth:`structure`,
    :meth:`backbone`) bridge back to the object layer on demand.  Every
    tick is bit-identical to the from-scratch oracle
    ``MobilitySession(kernel=False)`` driven by the same model.

    Args:
        positions: ``(n, 2)`` initial positions, row ``i`` for ``ids[i]``.
        radius: Unit-disk transmission range.
        mobility: The movement model (stepped in ascending-id row order,
            exactly like ``MobilitySession(kernel=False)``).
        ids: Node id per position row (default ``0..n-1``).
        area: Working space (defaults to the mobility model's area).
        torus: Wrap distances around ``area``.
        policy: Coverage policy; only the paper-default 2.5-hop sets have
            an incremental kernel.
        connectivity: Also compute per-tick connectivity (an extra
            ``O(n + m)`` BFS; the scaling workload leaves it off).
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        mobility: MobilityModel,
        *,
        ids: Optional[np.ndarray] = None,
        area: Optional[Area] = None,
        torus: bool = False,
        policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
        connectivity: bool = False,
    ) -> None:
        if policy is not CoveragePolicy.TWO_FIVE_HOP:
            raise ConfigurationError(
                "the kernel mobility session implements the 2.5-hop policy "
                f"only, got {policy.label}"
            )
        pts = np.array(positions, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(
                f"expected (n, 2) positions, got shape {pts.shape}"
            )
        n = pts.shape[0]
        if ids is not None:
            id_arr = np.asarray(ids, dtype=np.int64)
            order = np.argsort(id_arr, kind="stable")
            pts = pts[order]
            id_arr = id_arr[order]
        else:
            id_arr = None
        if not (radius > 0.0 and np.isfinite(radius)):
            raise GeometryError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        self.mobility = mobility
        self.policy = policy
        self.area = area if area is not None else mobility.area
        self.torus = bool(torus)
        self.connectivity = bool(connectivity)
        self.time = 0.0
        self.history: List[KernelTickReport] = []
        self._pts = pts
        self._csr = csr_from_positions(
            pts, self.radius, ids=id_arr,
            torus=self.area if self.torus else None,
        )
        self._head_row = lowest_id_rows(self._csr)
        self._cov = two_five_hop_arrays(self._csr, self._head_row)
        sel = select_gateways_batch(self._cov)
        self._conn = self._sorted_conn(
            (sel.conn_head, sel.conn_ch, sel.conn_v, sel.conn_w), n
        )
        self._gateway_rows = self._gateways_of(self._conn)
        self._grid = (
            None if self.torus else IncrementalGrid(pts, self.radius)
        )
        empty = np.empty(0, dtype=np.int64)
        self._last_flipped = empty
        self._last_reassigned = empty
        self._last_gained = empty
        self._last_lost = empty
        self._last_resignal = empty

    # -- array state -------------------------------------------------------

    @property
    def csr(self) -> CSRGraph:
        """The current adjacency."""
        return self._csr

    @property
    def head_row(self) -> np.ndarray:
        """The current per-row head assignment."""
        return self._head_row

    @property
    def coverage(self) -> CoverageArrays:
        """The maintained witness tables."""
        return self._cov

    @property
    def positions(self) -> np.ndarray:
        """Current positions in row (ascending-id) order."""
        return self._pts

    @property
    def gateway_rows(self) -> np.ndarray:
        """Current gateway rows, ascending."""
        return self._gateway_rows

    @staticmethod
    def _sorted_conn(
        conn: Tuple[np.ndarray, ...], n: int
    ) -> Tuple[np.ndarray, ...]:
        """Connector columns sorted by ``(head, ch)`` for stable splicing."""
        order = np.argsort(conn[0] * n + conn[1], kind="stable")
        return tuple(c[order] for c in conn)

    @staticmethod
    def _gateways_of(conn: Tuple[np.ndarray, ...]) -> np.ndarray:
        _, _, conn_v, conn_w = conn
        return sorted_unique(np.concatenate([conn_v, conn_w[conn_w >= 0]]))

    def _edge_delta(
        self, new_pts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, CSRGraph]:
        """Per-tick ``(added, removed, new_csr)`` canonical-key delta."""
        n = self._csr.num_nodes
        if self._grid is None:
            # Torus: wrapped distances have no cell structure here, so the
            # delta comes from a dense rebuild diff (the same dense path
            # the static builder uses for wrapped areas).
            new_csr = csr_from_positions(
                new_pts, self.radius, ids=self._csr.ids,
                torus=self.area,
            )
            old_keys = _canonical_keys(self._csr)
            new_keys = _canonical_keys(new_csr)
            added = _setdiff_sorted(new_keys, old_keys)
            removed = _setdiff_sorted(old_keys, new_keys)
            return added, removed, new_csr
        moved = self._grid.update(new_pts)
        us, vs = self._grid.delta_pairs(self.radius, moved)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        new_touched = np.sort(lo * n + hi)
        # Edges previously incident to a moved row.  The directed key set
        # is sorted and each undirected edge's canonical ``src < dst`` copy
        # is its own canonical key, so masking the directed keys yields the
        # sorted unique canonical set with no hashing pass.
        keys = self._csr.edge_keys()
        src, dst = keys // n, keys % n
        old_touched = keys[(src < dst) & (moved[src] | moved[dst])]
        added = _setdiff_sorted(new_touched, old_touched)
        removed = _setdiff_sorted(old_touched, new_touched)
        new_csr = apply_edge_delta(self._csr, added, removed)
        return added, removed, new_csr

    def step(self, dt: float = 1.0) -> KernelTickReport:
        """Advance the session one tick and repair every structure.

        Returns:
            The tick's :class:`KernelTickReport` (also appended to
            :attr:`history`).
        """
        with perf.stage("maintenance"):
            t0 = time.perf_counter()
            with perf.stage("maintenance.step"):
                new_pts = self.mobility.step(self._pts, dt)
            t1 = time.perf_counter()
            with perf.stage("maintenance.delta"):
                added, removed, new_csr = self._edge_delta(new_pts)
            t2 = time.perf_counter()
            with perf.stage("maintenance.repair"):
                report = self._repair(added, removed, new_csr, dt,
                                      t1 - t0, t2 - t1, t2)
            self._pts = new_pts
        self.history.append(report)
        return report

    def _repair(
        self,
        added: np.ndarray,
        removed: np.ndarray,
        new_csr: CSRGraph,
        dt: float,
        step_seconds: float,
        delta_seconds: float,
        t2: float,
    ) -> KernelTickReport:
        n = new_csr.num_nodes
        rows = np.arange(n, dtype=np.int64)
        old_head_row = self._head_row
        old_is_head = old_head_row == rows
        delta_keys = np.concatenate([added, removed])
        seeds = mask_unique_rows(
            np.concatenate([delta_keys // n, delta_keys % n]), n
        )
        if seeds.size:
            head_row, reevaluated, flipped, reassigned = (
                repair_lowest_id_rows(new_csr, old_head_row, seeds)
            )
        else:
            head_row = old_head_row
            reevaluated = flipped = reassigned = rows[:0]
        is_head = head_row == rows

        # Heads whose coverage inputs can have changed all lie within two
        # hops (in the new graph) of a changed edge endpoint or a row
        # whose role/assignment changed.
        seeds2 = mask_unique_rows(
            np.concatenate([seeds, flipped, reassigned]), n
        )
        l1, _ = new_csr.gather_rows(seeds2)
        l2, _ = new_csr.gather_rows(mask_unique_rows(l1, n))
        ball = mask_unique_rows(np.concatenate([seeds2, l1, l2]), n)
        dirty_old_heads = ball[old_is_head[ball]]
        dirty_new_heads = ball[is_head[ball]]

        cov = self._cov
        conn = self._conn
        surviving = dirty_old_heads[is_head[dirty_old_heads]]

        if seeds2.size:
            new_rows = two_five_hop_arrays_masked(
                new_csr, head_row, dirty_new_heads
            )
            # Gateway selection is a pure per-head function of the head's
            # witness slice, so surviving heads whose recomputed slices
            # came back identical keep their connector rows verbatim (and
            # are, by the same purity, exempt from re-signalling).
            unchanged = np.intersect1d(
                _unchanged_slice_heads(
                    (cov.d_head, cov.d_ch, cov.d_v), cov.d_head,
                    new_rows[:3], new_rows[0], surviving,
                ),
                _unchanged_slice_heads(
                    (cov.i_head, cov.i_ch, cov.i_v, cov.i_w), cov.i_head,
                    new_rows[3:], new_rows[3], surviving,
                ),
                assume_unique=True,
            )
            changed_surviving = np.setdiff1d(
                surviving, unchanged, assume_unique=True
            )
            sel_heads = np.setdiff1d(
                dirty_new_heads, unchanged, assume_unique=True
            )
            # Signalling comparison needs the changed surviving heads' old
            # target keys and gateway keys before their rows are dropped.
            old_t_keys = self._target_keys(cov, changed_surviving, n)
            old_g_keys = self._gateway_keys(conn, changed_surviving, n)
            d_cols = _splice_by_head(
                (cov.d_head, cov.d_ch, cov.d_v), cov.d_head,
                dirty_old_heads, new_rows[:3], new_rows[0],
            )
            i_cols = _splice_by_head(
                (cov.i_head, cov.i_ch, cov.i_v, cov.i_w), cov.i_head,
                dirty_old_heads, new_rows[3:], new_rows[3],
            )
            new_cov = CoverageArrays(
                csr=new_csr, policy=self.policy,
                heads=np.flatnonzero(is_head),
                d_head=d_cols[0], d_ch=d_cols[1], d_v=d_cols[2],
                i_head=i_cols[0], i_ch=i_cols[1], i_v=i_cols[2],
                i_w=i_cols[3],
            )
            sel_cols = select_gateways_masked(
                new_cov, sel_heads, np.empty(0, dtype=np.int64)
            )
            sel_sorted = self._sorted_conn(sel_cols, n)
            new_conn = _splice_by_head(
                conn, conn[0],
                np.setdiff1d(dirty_old_heads, unchanged, assume_unique=True),
                sel_sorted, sel_sorted[0],
            )
        else:
            changed_surviving = surviving
            old_t_keys = self._target_keys(cov, changed_surviving, n)
            old_g_keys = self._gateway_keys(conn, changed_surviving, n)
            new_cov = CoverageArrays(
                csr=new_csr, policy=self.policy, heads=cov.heads,
                d_head=cov.d_head, d_ch=cov.d_ch, d_v=cov.d_v,
                i_head=cov.i_head, i_ch=cov.i_ch, i_v=cov.i_v,
                i_w=cov.i_w,
            )
            new_conn = conn

        new_t_keys = self._target_keys(new_cov, changed_surviving, n)
        new_g_keys = self._gateway_keys(new_conn, changed_surviving, n)
        resignal = np.union1d(
            self._changed_heads(old_t_keys, new_t_keys, n),
            self._changed_heads(old_g_keys, new_g_keys, n),
        )

        new_gateways = self._gateways_of(new_conn)
        gained = _setdiff_sorted(new_gateways, self._gateway_rows)
        lost = _setdiff_sorted(self._gateway_rows, new_gateways)

        connected: Optional[bool] = None
        if self.connectivity:
            labels = new_csr.connected_component_labels()
            connected = bool(n <= 1 or int(labels.max()) == 0)

        self._csr = new_csr
        self._head_row = head_row
        self._cov = new_cov
        self._conn = new_conn
        self._gateway_rows = new_gateways
        self.time += dt
        # Stash the tick's row sets for the materialising wrapper (cheap:
        # views of small arrays).
        self._last_flipped = flipped
        self._last_reassigned = reassigned
        self._last_gained = gained
        self._last_lost = lost
        self._last_resignal = resignal
        return KernelTickReport(
            time=self.time,
            link_changes=int(added.shape[0] + removed.shape[0]),
            reevaluated=int(reevaluated.shape[0]),
            flipped=int(flipped.shape[0]),
            heads_gained=int(np.count_nonzero(is_head[flipped])),
            heads_lost=int(np.count_nonzero(~is_head[flipped])),
            reassigned=int(reassigned.shape[0]),
            dirty_heads=int(dirty_new_heads.shape[0]),
            gateways_gained=int(gained.shape[0]),
            gateways_lost=int(lost.shape[0]),
            resignalling=int(resignal.shape[0]),
            step_seconds=step_seconds,
            delta_seconds=delta_seconds,
            repair_seconds=time.perf_counter() - t2,
            connected=connected,
        )

    @staticmethod
    def _target_keys(
        cov: CoverageArrays, head_rows: np.ndarray, n: int
    ) -> np.ndarray:
        """Unique ``head * n + ch`` target keys of the given heads."""
        d_sel = _table_rows_for_heads(cov.d_head, head_rows)
        i_sel = _table_rows_for_heads(cov.i_head, head_rows)
        return sorted_unique(np.concatenate([
            cov.d_head[d_sel] * n + cov.d_ch[d_sel],
            cov.i_head[i_sel] * n + cov.i_ch[i_sel],
        ]))

    @staticmethod
    def _gateway_keys(
        conn: Tuple[np.ndarray, ...], head_rows: np.ndarray, n: int
    ) -> np.ndarray:
        """Unique ``head * n + relay`` keys of the given heads' gateways."""
        conn_head, _, conn_v, conn_w = conn
        sel = _table_rows_for_heads(conn_head, head_rows)
        h, v, w = conn_head[sel], conn_v[sel], conn_w[sel]
        return sorted_unique(np.concatenate([h * n + v,
                                             h[w >= 0] * n + w[w >= 0]]))

    @staticmethod
    def _changed_heads(
        old_keys: np.ndarray, new_keys: np.ndarray, n: int
    ) -> np.ndarray:
        """Heads whose per-head key set differs between two snapshots.

        Both inputs are unique within a head, so a head changed iff some
        key occurs in exactly one snapshot — boundary-count the merged
        sorted stream instead of building per-head Python sets.
        """
        k = np.sort(np.concatenate([old_keys, new_keys]))
        if k.shape[0] == 0:
            return k
        single = np.ones(k.shape[0], dtype=bool)
        dup = k[1:] == k[:-1]
        single[1:][dup] = False
        single[:-1][dup] = False
        return np.unique(k[single] // n)

    def run(self, ticks: int, dt: float = 1.0) -> List[KernelTickReport]:
        """Run ``ticks`` steps and return their reports."""
        return [self.step(dt) for _ in range(ticks)]

    # -- materialisation ---------------------------------------------------

    def network(self) -> Network:
        """The current snapshot as a :class:`~repro.graph.network.Network`."""
        ids = self._csr.ids.tolist()
        return Network(
            graph=self._csr.to_graph(),
            positions={v: (float(x), float(y))
                       for v, (x, y) in zip(ids, self._pts)},
            radius=self.radius,
            area=self.area,
            torus=self.torus,
        )

    def structure(self, network: Optional[Network] = None) -> ClusterStructure:
        """The current clustering as a :class:`ClusterStructure`."""
        graph = network.graph if network is not None else self._csr.to_graph()
        ids = self._csr.ids
        head_of = dict(zip(ids.tolist(), ids[self._head_row].tolist()))
        return ClusterStructure(graph=graph, head_of=head_of)

    def backbone(
        self, structure: Optional[ClusterStructure] = None
    ) -> Backbone:
        """The current backbone, bit-identical to a from-scratch build."""
        if structure is None:
            structure = self.structure()
        batch = BatchGatewaySelection(
            cov=self._cov,
            conn_head=self._conn[0],
            conn_ch=self._conn[1],
            conn_v=self._conn[2],
            conn_w=self._conn[3],
        )
        return Backbone(
            structure=structure,
            policy=self.policy,
            coverage_sets=self._cov.materialise_all(),
            selections=batch.materialise_all(),
            algorithm=f"static-backbone[{self.policy.label}]",
        )

    def churn_ids(self) -> Dict[str, "frozenset[NodeId]"]:
        """The last tick's churn row sets translated to node ids.

        Keys: ``heads_gained``, ``heads_lost``, ``reassigned``,
        ``gateways_gained``, ``gateways_lost``, ``resignalling`` — exactly
        the sets the object-layer churn dataclasses carry.
        """
        ids = self._csr.ids
        is_head = self._head_row == np.arange(
            self._csr.num_nodes, dtype=np.int64
        )
        flipped = self._last_flipped
        return {
            "heads_gained": frozenset(ids[flipped[is_head[flipped]]].tolist()),
            "heads_lost": frozenset(
                ids[flipped[~is_head[flipped]]].tolist()
            ),
            "reassigned": frozenset(ids[self._last_reassigned].tolist()),
            "gateways_gained": frozenset(ids[self._last_gained].tolist()),
            "gateways_lost": frozenset(ids[self._last_lost].tolist()),
            "resignalling": frozenset(ids[self._last_resignal].tolist()),
        }
