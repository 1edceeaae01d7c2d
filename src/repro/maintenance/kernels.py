"""Array-native mobility maintenance: the per-tick kernel session.

Re-deriving the backbone each tick over dict/set graphs is fine at paper
scale and unusable at n >= 10k.  This module runs the per-tick pipeline
entirely on arrays, at every n, in three timed stages:

1. **step** — the mobility model advances all ``(n, 2)`` positions at
   once.
2. **delta** — :func:`~repro.graph.csr.csr_from_positions` rebuilds the
   unit-disk graph, and its sorted canonical edge keys are diffed against
   the previous tick's: the appeared/vanished edges are the tick's link
   changes.
3. **repair** — :func:`~repro.cluster.lowest_id.repair_lowest_id_rows`
   re-evaluates the lowest-ID fixpoint from the changed edges' endpoints;
   then coverage (2.5-hop or 3-hop) and gateway selection run in full for
   every head, and the churn counts are read off array diffs of the old
   and new state.

Coverage and selection are rebuilt rather than patched because, at the
mobility rates the workloads run, the heads a tick can affect are nearly
all of them; docs/performance.md has the measurement.  Every tick's
clustering, coverage sets and selections are bit-identical to a
from-scratch object-layer rebuild (``tests/mobility_oracle.py``,
property-tested in ``tests/test_mobility_kernels.py``), on bordered and
wrapped areas alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import perf
from repro.backbone.gateway_selection import (
    BatchGatewaySelection,
    select_gateways_batch,
)
from repro.backbone.static_backbone import Backbone
from repro.cluster.lowest_id import lowest_id_rows, repair_lowest_id_rows
from repro.cluster.state import ClusterStructure
from repro.coverage.arrays import CoverageArrays
from repro.coverage.three_hop import three_hop_arrays
from repro.coverage.two_five_hop import two_five_hop_arrays
from repro.errors import GeometryError
from repro.geometry.area import Area
from repro.geometry.mobility import MobilityModel
from repro.graph.csr import (
    CSRGraph,
    csr_from_positions,
    mask_unique_rows,
    sorted_unique,
)
from repro.graph.network import Network
from repro.types import CoveragePolicy


@dataclass(frozen=True, slots=True)
class KernelTickReport:
    """Churn and locality counters for one kernel-session tick.

    Every field is a count; the materialising accessors of
    :class:`KernelMobilitySession` give the snapshot itself in node ids.

    Attributes:
        time: Session time after the tick.
        link_changes: Undirected edges that appeared plus disappeared.
        reevaluated: Rows whose clustering rule was re-run by
            :func:`~repro.cluster.lowest_id.repair_lowest_id_rows` (its
            affected ball).
        flipped: Rows whose head status changed.
        heads_gained / heads_lost: The flip split by direction.
        reassigned: Rows (non-head before and after) whose head changed.
        dirty_heads: Heads (after the tick) within two hops, in the new
            graph, of a changed edge's endpoint, a flipped row or a
            reassigned row — the heads whose coverage or selection can
            have changed.  Coverage and selection are rebuilt for every
            head regardless; this counts how local the tick's effect was.
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
    """Sorted unique canonical ``min * n + max`` keys of all edges.

    The directed key set is sorted and each undirected edge's ``src < dst``
    copy is its own canonical key, so masking needs no sort.
    """
    keys = csr.edge_keys()
    n = csr.num_nodes
    return keys[keys // n < keys % n]


def _sorted_diff(old: np.ndarray,
                 new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(new - old, old - new)`` for sorted unique keys below ``2**62``.

    One merge pass: each key carries its side in a low tag bit, a stable
    sort merges the two sorted runs, and a shared key lands by its twin.
    """
    tagged = np.concatenate((old.astype(np.int64) << 1,
                             (new.astype(np.int64) << 1) | 1))
    tagged.sort(kind="stable")
    key = tagged >> 1
    same = key[1:] == key[:-1]
    shared = np.zeros(tagged.shape[0], dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    single = tagged[~shared]
    from_new = (single & 1) == 1
    return single[from_new] >> 1, single[~from_new] >> 1


class KernelMobilitySession:
    """Maintain clustering + backbone under mobility, array-native.

    The one mobility session, from paper scale to the 100k-node workload.
    Holds positions, adjacency, head assignment, witness tables and
    connector tables as arrays between ticks and rebuilds them per tick;
    the materialising accessors (:meth:`network`, :meth:`structure`,
    :meth:`backbone`) bridge back to the object layer on demand.  Every
    tick is bit-identical to a from-scratch object-layer rebuild driven by
    the same model.

    Args:
        positions: ``(n, 2)`` initial positions, row ``i`` for ``ids[i]``.
        radius: Unit-disk transmission range.
        mobility: The movement model (stepped in ascending-id row order).
        ids: Node id per position row (default ``0..n-1``).
        area: Working space (defaults to the mobility model's area).
        torus: Wrap distances around ``area``.
        policy: Coverage policy (2.5-hop or 3-hop sets).
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
        pts = np.array(positions, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(
                f"expected (n, 2) positions, got shape {pts.shape}"
            )
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
        self._ids = id_arr
        csr = csr_from_positions(
            pts, self.radius, ids=id_arr,
            torus=self.area if self.torus else None,
        )
        self._edge_keys = _canonical_keys(csr)
        self._adopt(csr, lowest_id_rows(csr))

    @classmethod
    def from_network(
        cls,
        network: Network,
        mobility: MobilityModel,
        policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    ) -> "KernelMobilitySession":
        """A session over ``network``'s nodes, positions, range and area.

        Tracks per-tick connectivity, which object-layer callers report.
        """
        ids = network.graph.nodes()
        return cls(
            network.position_array(ids), network.radius, mobility,
            ids=np.asarray(ids, dtype=np.int64), area=network.area,
            torus=network.torus, policy=policy, connectivity=True,
        )

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
        """The current witness tables."""
        return self._cov

    @property
    def positions(self) -> np.ndarray:
        """Current positions in row (ascending-id) order."""
        return self._pts

    @property
    def gateway_rows(self) -> np.ndarray:
        """Current gateway rows, ascending."""
        return self._gateway_rows

    def _adopt(self, csr: CSRGraph, head_row: np.ndarray) -> None:
        """Make ``(csr, head_row)`` current and rebuild everything above it.

        Coverage and gateway selection run in full for every head; the
        per-head target and gateway key sets are kept so the next tick can
        diff against them.
        """
        n = csr.num_nodes
        builder = (
            three_hop_arrays
            if self.policy is CoveragePolicy.THREE_HOP
            else two_five_hop_arrays
        )
        cov = builder(csr, head_row)
        sel = select_gateways_batch(cov)
        # Connector rows in ``(head, ch)`` order, so materialised
        # selections list their connectors by target.
        order = np.argsort(sel.conn_head * n + sel.conn_ch, kind="stable")
        conn = tuple(c[order] for c in (sel.conn_head, sel.conn_ch,
                                        sel.conn_v, sel.conn_w))
        conn_head, _, conn_v, conn_w = conn
        relay = conn_w >= 0
        self._csr = csr
        self._head_row = head_row
        self._cov = cov
        self._conn = conn
        self._gateway_rows = sorted_unique(
            np.concatenate([conn_v, conn_w[relay]])
        )
        self._target_keys = sorted_unique(np.concatenate([
            cov.d_head * n + cov.d_ch, cov.i_head * n + cov.i_ch,
        ]))
        self._gateway_keys = sorted_unique(np.concatenate([
            conn_head * n + conn_v, conn_head[relay] * n + conn_w[relay],
        ]))

    def step(self, dt: float = 1.0) -> KernelTickReport:
        """Advance the session one tick and rebuild every structure.

        Three timed stages: ``step`` moves the positions; ``delta``
        rebuilds the unit-disk graph and diffs its canonical edge keys
        against the previous tick's; ``repair`` re-clusters from the
        changed edges' endpoints, recomputes every head's coverage and
        gateway selection, and derives the churn counts from array diffs
        of the old and new state.

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
                new_csr = csr_from_positions(
                    new_pts, self.radius, ids=self._ids,
                    torus=self.area if self.torus else None,
                )
                new_keys = _canonical_keys(new_csr)
                added, removed = _sorted_diff(self._edge_keys, new_keys)
            t2 = time.perf_counter()
            with perf.stage("maintenance.repair"):
                report = self._repair(added, removed, new_csr, dt,
                                      t1 - t0, t2 - t1, t2)
            self._pts = new_pts
            self._edge_keys = new_keys
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

        # The ``dirty_heads`` ball: heads whose coverage inputs can have
        # changed all lie within two hops (in the new graph) of a changed
        # edge endpoint or a row whose role/assignment changed.
        seeds2 = mask_unique_rows(
            np.concatenate([seeds, flipped, reassigned]), n
        )
        l1, _ = new_csr.gather_rows(seeds2)
        l2, _ = new_csr.gather_rows(mask_unique_rows(l1, n))
        ball = mask_unique_rows(np.concatenate([seeds2, l1, l2]), n)

        old_gateways = self._gateway_rows
        old_target_keys = self._target_keys
        old_gateway_keys = self._gateway_keys
        self._adopt(new_csr, head_row)
        resignal = np.union1d(
            self._changed_heads(old_target_keys, self._target_keys, n),
            self._changed_heads(old_gateway_keys, self._gateway_keys, n),
        )
        resignal = resignal[old_is_head[resignal] & is_head[resignal]]
        gained, lost = _sorted_diff(old_gateways, self._gateway_rows)

        connected: Optional[bool] = None
        if self.connectivity:
            labels = new_csr.connected_component_labels()
            connected = bool(n <= 1 or int(labels.max()) == 0)

        self.time += dt
        return KernelTickReport(
            time=self.time,
            link_changes=int(added.shape[0] + removed.shape[0]),
            reevaluated=int(reevaluated.shape[0]),
            flipped=int(flipped.shape[0]),
            heads_gained=int(np.count_nonzero(is_head[flipped])),
            heads_lost=int(np.count_nonzero(~is_head[flipped])),
            reassigned=int(reassigned.shape[0]),
            dirty_heads=int(np.count_nonzero(is_head[ball])),
            gateways_gained=int(gained.shape[0]),
            gateways_lost=int(lost.shape[0]),
            resignalling=int(resignal.shape[0]),
            step_seconds=step_seconds,
            delta_seconds=delta_seconds,
            repair_seconds=time.perf_counter() - t2,
            connected=connected,
        )

    @staticmethod
    def _changed_heads(
        old_keys: np.ndarray, new_keys: np.ndarray, n: int
    ) -> np.ndarray:
        """Heads whose per-head key set differs between two snapshots.

        Both inputs are sorted unique ``head * n + x`` keys, so a head
        changed iff some key occurs in exactly one snapshot —
        boundary-count the merged sorted stream instead of building
        per-head Python sets.
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

    def structure(self) -> ClusterStructure:
        """The current clustering as a :class:`ClusterStructure`."""
        ids = self._csr.ids
        head_of = dict(zip(ids.tolist(), ids[self._head_row].tolist()))
        return ClusterStructure(graph=self._csr.to_graph(), head_of=head_of)

    def backbone(self) -> Backbone:
        """The current backbone, bit-identical to a from-scratch build."""
        batch = BatchGatewaySelection(
            cov=self._cov,
            conn_head=self._conn[0],
            conn_ch=self._conn[1],
            conn_v=self._conn[2],
            conn_w=self._conn[3],
        )
        return Backbone(
            structure=self.structure(),
            policy=self.policy,
            coverage_sets=self._cov.materialise_all(),
            selections=batch.materialise_all(),
            algorithm=f"static-backbone[{self.policy.label}]",
        )
