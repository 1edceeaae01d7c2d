"""Immutable CSR adjacency — the array-native graph core for hot paths.

:class:`CSRGraph` stores an undirected graph in compressed sparse row form:
``indptr`` (``int32``, length ``n + 1``) and ``indices`` (``int32``, the
concatenated, per-row-sorted neighbour lists), plus the node-id array
``ids`` (ascending).  Rows are *ranks in id order*, so row comparisons are
id comparisons — exactly what lowest-ID clustering needs.

The CSR form is the substrate for the per-trial array kernels (unit-disk
construction, clustering, coverage sets, gateway selection); the set-based
:class:`~repro.graph.adjacency.Graph` remains the mutable view used by the
dynamic/mobility paths, bridged through :meth:`CSRGraph.to_graph` /
:meth:`CSRGraph.from_graph` (and ``Graph.to_csr`` / ``Graph.from_csr``).
Both directions preserve the graph exactly, and every kernel is gated on
bit-identical results against the set-based implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError, NodeNotFoundError
from repro.geometry.area import Area
from repro.geometry.grid import grouped_ranges
from repro.graph.build import unit_disk_pairs
from repro.types import NodeId

if TYPE_CHECKING:
    from repro.graph.adjacency import Graph

#: Node count at which the object-layer entry points (coverage sets, static
#: backbone) convert to CSR and run the array kernels instead of the
#: dict/set implementation.  Conversion costs O(n + m) Python work, so tiny
#: paper-scale networks (n <= 100) stay on the set path; from about a
#: thousand nodes the vectorised kernels win by a growing margin (see
#: benchmarks/bench_construction_speed.py and docs/csr_core.md).
CSR_CUTOVER = 1024


class CSRGraph:
    """An immutable undirected graph in CSR form over integer node ids.

    Do not mutate the arrays; every consumer (and the bridge back to
    :class:`~repro.graph.adjacency.Graph`) assumes rows are sorted and the
    structure is fixed.  Use :meth:`to_graph` for a mutable copy.

    Args:
        indptr: ``(n + 1,)`` row-offset array.
        indices: Concatenated neighbour rows, sorted within each row.
        ids: Node id per row, strictly ascending; ``None`` means ``0..n-1``.
    """

    __slots__ = ("indptr", "indices", "_ids", "_identity_ids")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        ids: Optional[np.ndarray] = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        n = self.indptr.shape[0] - 1
        if ids is None:
            self._ids = None
            self._identity_ids = True
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape[0] != n:
                raise GeometryError(
                    f"got {ids.shape[0]} ids for {n} CSR rows"
                )
            if n and not (np.diff(ids) > 0).all():
                raise GeometryError("CSR ids must be strictly ascending")
            self._identity_ids = bool(
                n == 0 or (ids[0] == 0 and ids[-1] == n - 1)
            )
            self._ids = None if self._identity_ids else ids

    # -- shape -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes (rows)."""
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree per row."""
        return np.diff(self.indptr)

    @property
    def ids(self) -> np.ndarray:
        """Node id per row (ascending)."""
        if self._ids is None:
            return np.arange(self.num_nodes, dtype=np.int64)
        return self._ids

    @property
    def has_identity_ids(self) -> bool:
        """Whether row ``r`` is node id ``r`` (the common fast path)."""
        return self._identity_ids

    # -- queries -----------------------------------------------------------

    def row(self, r: int) -> np.ndarray:
        """Neighbour rows of row ``r`` (a sorted, read-only slice)."""
        return self.indices[self.indptr[r]:self.indptr[r + 1]]

    def row_of(self, v: NodeId) -> int:
        """Row index of node id ``v``.

        Raises:
            NodeNotFoundError: if ``v`` is not a node.
        """
        if self._ids is None:
            r = int(v)
            if 0 <= r < self.num_nodes:
                return r
            raise NodeNotFoundError(v)
        r = int(np.searchsorted(self._ids, v))
        if r < self.num_nodes and self._ids[r] == v:
            return r
        raise NodeNotFoundError(v)

    def neighbour_ids(self, v: NodeId) -> np.ndarray:
        """Neighbour node ids of node id ``v`` (ascending)."""
        rows = self.row(self.row_of(v))
        return rows.astype(np.int64) if self._ids is None else self._ids[rows]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        try:
            ru, rv = self.row_of(u), self.row_of(v)
        except NodeNotFoundError:
            return False
        row = self.row(ru)
        k = int(np.searchsorted(row, rv))
        return k < row.shape[0] and int(row[k]) == rv

    def edge_keys(self) -> np.ndarray:
        """All directed edges as sorted int64 keys ``src_row * n + dst_row``.

        The array is globally ascending (rows ascend, neighbours ascend
        within a row), so pair-adjacency tests over many ``(u, v)`` pairs
        are one vectorised :func:`np.searchsorted` — the membership
        primitive of the coverage kernels.
        """
        n = self.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        return src * n + self.indices

    def gather_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbour lists of ``rows`` plus per-row counts.

        Returns ``(flat, counts)`` where ``flat`` holds the neighbours of
        ``rows[0]``, then ``rows[1]``, … and ``counts[k]`` is the degree of
        ``rows[k]`` — the frontier-expansion primitive of the BFS kernels.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = (self.indptr[rows + 1] - self.indptr[rows]).astype(np.int64)
        flat = self.indices[grouped_ranges(self.indptr[rows], counts)]
        return flat, counts

    # -- derived structure -------------------------------------------------

    def subgraph_rows(self, rows: np.ndarray) -> "CSRGraph":
        """Induced subgraph on the given rows (must be sorted, unique).

        Edges leaving the row set are dropped; surviving neighbours are
        renumbered to the new compact row space.  Ids are carried over.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = self.num_nodes
        keep = np.zeros(n, dtype=bool)
        keep[rows] = True
        rank = np.empty(n, dtype=np.int64)
        rank[rows] = np.arange(rows.shape[0], dtype=np.int64)
        flat, counts = self.gather_rows(rows)
        owner = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
        inside = keep[flat]
        new_counts = np.bincount(owner[inside], minlength=rows.shape[0])
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        indices = rank[flat[inside]]
        return CSRGraph(indptr, indices, ids=self.ids[rows])

    def connected_component_labels(self) -> np.ndarray:
        """Component label per row (labels are arbitrary small ints).

        Array BFS: repeatedly seed from the first unvisited row and expand
        whole frontiers with vectorised gathers, so the total work is
        ``O(n + m)`` plus one pass per BFS level.
        """
        n = self.num_nodes
        labels = np.full(n, -1, dtype=np.int64)
        label = 0
        cursor = 0
        while True:
            while cursor < n and labels[cursor] >= 0:
                cursor += 1
            if cursor >= n:
                break
            frontier = np.array([cursor], dtype=np.int64)
            labels[cursor] = label
            while frontier.size:
                flat, _ = self.gather_rows(frontier)
                fresh = flat[labels[flat] < 0]
                if fresh.size == 0:
                    break
                frontier = sorted_unique(fresh)
                labels[frontier] = label
            label += 1
        return labels

    def giant_component_rows(self) -> np.ndarray:
        """Rows of the largest connected component (sorted).

        Ties break toward the component with the smallest row, matching
        ``max(connected_components(graph), key=len)`` over the set-based
        implementation, whose components come out in ascending discovery
        order.
        """
        if self.num_nodes == 0:
            return np.empty(0, dtype=np.int64)
        labels = self.connected_component_labels()
        sizes = np.bincount(labels)
        return np.flatnonzero(labels == int(np.argmax(sizes)))

    # -- bridge ------------------------------------------------------------

    def to_graph(self) -> "Graph":
        """Materialise a mutable :class:`~repro.graph.adjacency.Graph`.

        The inverse of :meth:`from_graph`; round-tripping either way
        reproduces the same graph exactly.
        """
        from repro.graph.adjacency import Graph

        ids = self.ids
        graph = Graph()
        adj = graph._adj
        id_list = ids.tolist()
        indptr = self.indptr
        if self._ids is None:
            nbrs = self.indices.tolist()
        else:
            nbrs = ids[self.indices].tolist()
        for r, v in enumerate(id_list):
            adj[v] = set(nbrs[indptr[r]:indptr[r + 1]])
        return graph

    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Build the CSR form of a set-based graph."""
        id_list = graph.nodes()
        n = len(id_list)
        ids = np.asarray(id_list, dtype=np.int64)
        identity = bool(n == 0 or (ids[0] == 0 and ids[-1] == n - 1))
        adj = graph._adj
        counts = np.fromiter(
            (len(adj[v]) for v in id_list), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat_ids = np.fromiter(
            (w for v in id_list for w in sorted(adj[v])),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        if identity:
            indices = flat_ids
        else:
            indices = np.searchsorted(ids, flat_ids)
        return cls(indptr, indices, ids=ids)

    @classmethod
    def from_pairs(
        cls,
        n: int,
        us: np.ndarray,
        vs: np.ndarray,
        ids: Optional[Sequence[NodeId]] = None,
    ) -> "CSRGraph":
        """Build CSR from unordered edge pairs over position indices.

        Args:
            n: Number of nodes (pairs may omit isolated ones).
            us, vs: Endpoint index arrays — each unordered edge exactly once.
            ids: Node id per position index; rows come out in ascending id
                order (a permuted id assignment relabels the rows).
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        id_arr: Optional[np.ndarray] = None
        if ids is not None:
            id_arr = np.asarray(list(ids), dtype=np.int64)
            perm = np.argsort(id_arr, kind="stable")
            rank = np.empty(n, dtype=np.int64)
            rank[perm] = np.arange(n, dtype=np.int64)
            us, vs = rank[us], rank[vs]
            id_arr = id_arr[perm]
        src = np.concatenate((us, vs))
        dst = np.concatenate((vs, us))
        # Sorting the packed directed-edge keys and unpacking beats an
        # argsort-and-gather: the destination column *is* ``key % n``.
        keys = np.sort(src * n + dst)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, keys % n, ids=id_arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.ids, other.ids)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"


def csr_from_positions(
    positions: np.ndarray,
    radius: float,
    *,
    ids: Optional[Sequence[NodeId]] = None,
    torus: Optional[Area] = None,
) -> CSRGraph:
    """Unit-disk CSR adjacency straight from positions.

    The default path runs the :class:`~repro.geometry.grid.SpatialGrid`
    cell sweep fully vectorised (:meth:`SpatialGrid.pair_arrays`) — no
    intermediate Python edge list exists at any point.  With ``torus`` the
    wrapped pairwise distances are computed densely (``O(n^2)`` memory),
    matching the dense set-based builder exactly.

    Args:
        positions: ``(n, 2)`` coordinate array.
        radius: Nodes are adjacent iff strictly closer than this.
        ids: Node ids per position row; defaults to ``0..n-1``.
        torus: Wrap distances around this area (dense path).
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) positions, got shape {pts.shape}")
    us, vs = unit_disk_pairs(pts, radius, torus=torus,
                             method="grid" if torus is None else "dense")
    return CSRGraph.from_pairs(pts.shape[0], us, vs, ids=ids)


# -- segment primitives shared by the array kernels ------------------------


def row_reduce_min(
    vals: np.ndarray, offsets: np.ndarray, empty: int
) -> np.ndarray:
    """Per-group minimum of ``vals`` split at ``offsets`` (CSR-style).

    ``offsets`` has one more entry than there are groups; empty groups
    yield ``empty``.  The sentinel append keeps ``np.minimum.reduceat``
    well-defined for trailing empty groups.
    """
    if offsets.shape[0] == 1:
        return np.empty(0, dtype=vals.dtype if vals.size else np.int64)
    total = int(offsets[-1])
    padded = np.append(vals, empty)
    out = np.minimum.reduceat(padded, np.minimum(offsets[:-1], total))
    out[offsets[1:] == offsets[:-1]] = empty
    return out


def grouped_cartesian(
    a_counts: np.ndarray, b_counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for the per-group cartesian product ``A_g × B_g``.

    Given per-group sizes of two parallel grouped arrays, returns
    ``(group, a_local, b_local)`` — for every group ``g`` and every
    ``(i, j)`` in ``range(a_counts[g]) × range(b_counts[g])`` one entry.
    Local offsets are relative to each group's start.
    """
    a_counts = np.asarray(a_counts, dtype=np.int64)
    b_counts = np.asarray(b_counts, dtype=np.int64)
    prod = a_counts * b_counts
    total = int(prod.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e
    group = np.repeat(np.arange(prod.shape[0], dtype=np.int64), prod)
    ends = np.cumsum(prod)
    local = np.arange(total, dtype=np.int64) - np.repeat(ends - prod, prod)
    b_rep = np.repeat(b_counts, prod)
    return group, local // b_rep, local % b_rep


def _pack_limit(columns: int) -> int:
    """Largest ``n`` whose ``columns``-digit base-``n`` key fits an int64.

    Derived exactly (integer arithmetic, no float rounding): the packed key
    of ``columns`` values in ``[0, n)`` is at most ``n**columns - 1``, which
    must not exceed ``2**63 - 1``.
    """
    limit = int((2**63 - 1) ** (1.0 / columns))
    while (limit + 1) ** columns <= 2**63 - 1:
        limit += 1
    while limit**columns > 2**63 - 1:
        limit -= 1
    return limit


#: Largest node count whose (head, ch, v, w) witness quads still pack into
#: one int64 key (``n**4 <= 2**63``); 55108.
_PACK4_MAX = _pack_limit(4)

#: Largest node count for three-column packed keys (``n**3 <= 2**63``);
#: 2097151.  Beyond this, even the partially packed ``(a*n + b)*n + c``
#: keys silently wrap int64 and corrupt sort order, so every user must
#: fall back to an explicit lexsort.  Two-column ``a*n + b`` keys never
#: overflow: CSR rows are int32, so ``n**2 < 2**62``.
_PACK3_MAX = _pack_limit(3)


def sort_quads(
    n: int,
    head: np.ndarray,
    ch: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The witness quads sorted by ``(head, ch, v, w)``.

    Up to :data:`_PACK4_MAX` nodes all four columns pack into a single
    int64, so one :func:`np.sort` plus integer unpacking replaces a
    two-pass lexsort and four gathers.  Up to :data:`_PACK3_MAX` a
    three-column key still packs and a two-pass lexsort finishes the job;
    beyond that only pairs pack safely.  All tiers produce the identical
    order.
    """
    # int64 up front: int32 input (CSR indices) would wrap inside the
    # packed keys long before the tier guards account for it.
    head = np.asarray(head, dtype=np.int64)
    ch = np.asarray(ch, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    if n <= _PACK4_MAX:
        key = np.sort(((head * n + ch) * n + v) * n + w)
        rest = key // n
        rest2 = rest // n
        return rest2 // n, rest2 % n, rest % n, key % n
    if n <= _PACK3_MAX:
        order = np.lexsort((w, (head * n + ch) * n + v))
    else:
        order = np.lexsort((w, v, head * n + ch))
    return head[order], ch[order], v[order], w[order]


def sort_triples(
    n: int,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row triples sorted by ``(a, b, c)``.

    The coverage kernels' direct-witness sort: up to :data:`_PACK3_MAX`
    nodes the three columns pack into one int64 (one :func:`np.sort` plus
    unpacking); beyond that a lexsort over the always-safe pair key
    produces the identical order instead of silently overflowing.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    if n <= _PACK3_MAX:
        key = np.sort((a * n + b) * n + c)
        ab = key // n
        return ab // n, ab % n, key % n
    order = np.lexsort((c, a * n + b))
    return a[order], b[order], c[order]


def searchsorted_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``needles`` occur in the sorted ``haystack``."""
    if haystack.shape[0] == 0:
        return np.zeros(needles.shape[0], dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos_c = np.minimum(pos, haystack.shape[0] - 1)
    return haystack[pos_c] == needles


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique of an integer array: stable (radix) sort + boundaries.

    ``np.unique`` routes integer input through a hash table whose fixed
    overhead dwarfs the work for the small-to-mid arrays the maintenance
    kernels produce every tick — and its output must be sorted anyway.
    """
    if values.shape[0] <= 1:
        return np.sort(values)
    out = np.sort(values, kind="stable")
    keep = np.empty(out.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def mask_unique_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique of row indices in ``[0, n)`` via a boolean scatter.

    O(n + len(rows)) with no sort at all — the fastest dedupe when the
    values are graph rows and ``n`` is at hand.
    """
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return np.flatnonzero(mask)
