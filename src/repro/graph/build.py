"""Unit disk graph construction from node positions.

The paper models a MANET as a unit disk graph: hosts share a transmission
range ``r`` and are neighbours iff their distance is **strictly less than**
``r``.  Two construction strategies are provided and selected automatically:

* a dense vectorised ``O(n^2)`` distance-matrix pass (fast for the paper's
  ``n <= 100`` networks thanks to numpy), and
* a :class:`repro.geometry.grid.SpatialGrid` sweep with expected ``O(n)``
  work for large ``n``.

Both produce identical graphs; a test asserts the equivalence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import perf
from repro.errors import GeometryError
from repro.geometry.area import Area
from repro.geometry.grid import SpatialGrid
from repro.graph.adjacency import Graph
from repro.types import NodeId

#: Above this node count the grid sweep beats the dense matrix pass.
#: Re-measured 2026-08 after the batched ``SpatialGrid.pair_arrays``
#: stencil sweep replaced the per-cell Python loop: uniform placements at
#: target degree 12 (min-of-25 reps, seeds 7/11/23) put the dense pass
#: ahead through n≈40 (0.5–0.9x grid time) and behind from n≈60 on
#: (1.1–1.3x, 2x by n=150); the old Python-loop grid justified 1200.
_DENSE_CUTOVER = 48


@perf.timed("construction")
def unit_disk_graph(
    positions: np.ndarray,
    radius: float,
    *,
    ids: Optional[Sequence[NodeId]] = None,
    method: str = "auto",
    torus: Optional[Area] = None,
) -> Graph:
    """Build the unit disk graph over ``positions`` with range ``radius``.

    Args:
        positions: ``(n, 2)`` coordinate array.
        radius: Common transmission range; nodes are adjacent iff their
            Euclidean distance is strictly below ``radius``.
        ids: Node ids for the rows of ``positions``; defaults to ``0..n-1``.
            Ids drive lowest-ID clustering, so callers wanting an id
            assignment independent of position order pass a permutation here.
        method: ``"dense"``, ``"grid"`` or ``"auto"`` (pick by size).
        torus: If given, distances wrap around this area (no borders) —
            used by border-effect ablations; the analytic degree formula is
            then exact.  Only the dense construction supports it.

    Returns:
        The unit disk :class:`~repro.graph.adjacency.Graph`.
    """
    pts, id_list, method = _validate(positions, radius, ids, method, torus)
    us, vs = unit_disk_pairs(pts, radius, method=method, torus=torus)
    return _graph_from_rows(id_list, *_neighbour_rows(len(id_list), us, vs))


@perf.timed("construction")
def connected_unit_disk_graph(
    positions: np.ndarray,
    radius: float,
    *,
    ids: Optional[Sequence[NodeId]] = None,
    torus: Optional[Area] = None,
) -> Optional[Graph]:
    """:func:`unit_disk_graph`, or ``None`` when it is disconnected.

    The test runs on arrays before any :class:`Graph` exists: an isolated
    node costs one ``bincount``, else a search over the neighbour rows.
    """
    pts, id_list, method = _validate(positions, radius, ids, "auto", torus)
    n = len(id_list)
    us, vs = unit_disk_pairs(pts, radius, method=method, torus=torus)
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    if n > 1 and not degree.all():
        return None
    indptr, partners = _neighbour_rows(n, us, vs)
    if not _rows_connected(indptr, partners):
        return None
    return _graph_from_rows(id_list, indptr, partners)


def unit_disk_pairs(positions: np.ndarray, radius: float, *,
                    method: str = "grid", torus: Optional[Area] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices of each adjacent pair once: in upper-triangle order for
    ``method="dense"`` (required under ``torus``), else in
    :meth:`~repro.geometry.grid.SpatialGrid.pair_arrays` order."""
    n = positions.shape[0]
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if method == "grid":
        return SpatialGrid(positions, cell_size=radius).pair_arrays(radius)
    diff = np.abs(positions[:, None, :] - positions[None, :, :])
    if torus is not None:
        extent = np.array([torus.width, torus.height])
        diff = np.minimum(diff, extent - diff)
    close = np.einsum("ijk,ijk->ij", diff, diff) < radius * radius
    iu, ju = np.triu_indices(n, k=1)
    keep = close[iu, ju]
    return iu[keep], ju[keep]


def _validate(positions, radius, ids, method, torus):
    """Checked ``(points, id list, resolved method)`` for the builders."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) positions, got shape {pts.shape}")
    if not (radius > 0.0 and np.isfinite(radius)):
        raise GeometryError(f"radius must be positive and finite, got {radius}")
    n = pts.shape[0]
    if ids is None:
        id_list: Sequence[NodeId] = range(n)
    else:
        id_list = list(ids)
        if len(id_list) != n:
            raise GeometryError(
                f"got {len(id_list)} ids for {n} positions"
            )
        if len(set(id_list)) != n:
            raise GeometryError("node ids must be unique")
    if method not in ("auto", "dense", "grid"):
        raise GeometryError(f"unknown construction method {method!r}")
    if torus is not None:
        if method == "grid":
            raise GeometryError(
                "toroidal distances are only supported by the dense "
                "construction"
            )
        method = "dense"
    if method == "auto":
        method = "dense" if n <= _DENSE_CUTOVER else "grid"
    return pts, id_list, method


def _neighbour_rows(n: int, us: np.ndarray,
                    vs: np.ndarray) -> Tuple[List[int], List[int]]:
    """``(indptr, partners)``: each row's partners in pair order, the
    order in which adding the pairs one by one inserts them."""
    src = np.stack((us, vs), axis=1).ravel()
    dst = np.stack((vs, us), axis=1).ravel()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr.tolist(), dst[np.argsort(src, kind="stable")].tolist()


def _rows_connected(indptr: List[int], partners: List[int]) -> bool:
    """Whether a depth-first search from row 0 reaches every row."""
    seen = bytearray(len(indptr) - 1)
    stack = [0] if seen else []
    while stack:
        v = stack.pop()
        if not seen[v]:
            seen[v] = 1
            stack.extend(partners[indptr[v]:indptr[v + 1]])
    return all(seen)


def _graph_from_rows(id_list: Sequence[NodeId], indptr: List[int],
                     partners: List[int]) -> Graph:
    """The :class:`Graph` of the rows.  Sets are filled in row order, so
    their iteration order (and every tie-break over it) is unchanged."""
    if not isinstance(id_list, range):
        partners = [id_list[w] for w in partners]
    graph = Graph()
    for row, v in enumerate(id_list):
        graph._adj[int(v)] = set(partners[indptr[row]:indptr[row + 1]])
    return graph


@perf.timed("construction")
def unit_disk_csr(
    positions: np.ndarray,
    radius: float,
    *,
    ids: Optional[Sequence[NodeId]] = None,
    torus: Optional[Area] = None,
):
    """Build the unit disk graph directly in CSR form.

    The large-``n`` construction path: positions go straight through the
    vectorised :meth:`~repro.geometry.grid.SpatialGrid.pair_arrays` cell
    sweep into :class:`~repro.graph.csr.CSRGraph` arrays — no ``Graph``
    object, no Python edge list.  Same arguments and validation as
    :func:`unit_disk_graph` (minus ``method``: the sweep is always the
    grid one, except under ``torus`` which forces the dense pass).

    Returns:
        The unit disk :class:`~repro.graph.csr.CSRGraph`.
    """
    from repro.graph.csr import csr_from_positions

    pts, id_list, _ = _validate(positions, radius, ids, "auto", torus)
    return csr_from_positions(pts, radius, torus=torus,
                              ids=None if ids is None else id_list)
