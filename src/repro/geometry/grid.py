"""Spatial hash grid for fixed-radius neighbour queries.

Building a unit disk graph naively costs ``O(n^2)`` distance checks.  The
paper's networks are small (``n <= 100``) but the library also supports much
larger networks for scaling studies, so :class:`SpatialGrid` buckets points
into square cells of side ``radius``; all neighbours of a point then lie in
its own or the eight surrounding cells.  For uniform placements this makes
graph construction expected ``O(n)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import GeometryError

CellKey = Tuple[int, int]

_NEIGHBOUR_OFFSETS: Tuple[CellKey, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


class SpatialGrid:
    """Bucket 2-D points into cells of side ``cell_size`` for radius queries.

    The grid is built once from an ``(n, 2)`` position array; indices into
    that array are what the query methods return.

    Args:
        positions: Array of shape ``(n, 2)``.
        cell_size: Side length of each square cell; must be positive.  For
            unit-disk queries pass the transmission radius.
    """

    __slots__ = ("_positions", "_cell_size", "_cells")

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        pts = np.asarray(positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GeometryError(f"expected (n, 2) positions, got shape {pts.shape}")
        if not (cell_size > 0.0 and np.isfinite(cell_size)):
            raise GeometryError(f"cell size must be positive and finite, got {cell_size}")
        self._positions = pts
        self._cell_size = float(cell_size)
        self._cells: Dict[CellKey, List[int]] | None = None

    @property
    def cells(self) -> Dict[CellKey, List[int]]:
        """Cell key -> bucket of point indices, built on first use.

        Lazy because the vectorised :meth:`pair_arrays` sweep never touches
        the Python dict — only the per-point query methods do.
        """
        if self._cells is None:
            cells: Dict[CellKey, List[int]] = defaultdict(list)
            keys = np.floor(self._positions / self._cell_size).astype(np.int64)
            for idx, (cx, cy) in enumerate(keys):
                cells[(int(cx), int(cy))].append(idx)
            self._cells = dict(cells)
        return self._cells

    @property
    def cell_size(self) -> float:
        """Side length of the grid cells."""
        return self._cell_size

    def __len__(self) -> int:
        return int(self._positions.shape[0])

    def cell_of(self, point: np.ndarray) -> CellKey:
        """Cell key containing ``point`` (a length-2 array-like)."""
        x, y = float(point[0]), float(point[1])
        return (int(np.floor(x / self._cell_size)), int(np.floor(y / self._cell_size)))

    def candidates_near(self, point: np.ndarray) -> Iterator[int]:
        """Yield indices of points in the 3x3 cell block around ``point``.

        This is a superset of the true radius-``cell_size`` neighbourhood;
        callers filter by exact distance.
        """
        cx, cy = self.cell_of(point)
        cells = self.cells
        for dx, dy in _NEIGHBOUR_OFFSETS:
            bucket = cells.get((cx + dx, cy + dy))
            if bucket:
                yield from bucket

    def pairs_within(self, radius: float) -> Iterator[Tuple[int, int]]:
        """Yield each unordered pair ``(i, j)`` with ``i < j`` within ``radius``.

        Pairs are generated exactly once by only pairing ``i < j``.
        """
        if radius > self._cell_size + 1e-12:
            raise GeometryError(
                f"query radius {radius} exceeds grid cell size {self._cell_size}"
            )
        r2 = radius * radius
        pts = self._positions
        for i in range(pts.shape[0]):
            p = pts[i]
            for j in self.candidates_near(p):
                if j <= i:
                    continue
                d = pts[j] - p
                if d[0] * d[0] + d[1] * d[1] < r2:
                    yield (i, j)

    def pair_arrays(self, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All unordered pairs within ``radius`` as two index arrays.

        The vectorised counterpart of :meth:`pairs_within`: the whole cell
        sweep — candidate gathering per cell-neighbourhood and the exact
        distance filter — runs as numpy array operations, with no Python
        loop over points and no intermediate Python edge list.  Each
        unordered pair appears exactly once; the two returned arrays hold
        its endpoints (not necessarily ``i < j`` within cross-cell blocks).
        """
        if radius > self._cell_size + 1e-12:
            raise GeometryError(
                f"query radius {radius} exceeds grid cell size {self._cell_size}"
            )
        pts = self._positions
        n = pts.shape[0]
        empty = np.empty(0, dtype=np.int64)
        if n < 2:
            return empty, empty
        keys2d = np.floor(pts / self._cell_size).astype(np.int64)
        kx = keys2d[:, 0] - keys2d[:, 0].min()
        ky = keys2d[:, 1] - keys2d[:, 1].min()
        # +3 guard band: neighbour offsets step at most one cell outside the
        # occupied range, so distinct (kx, ky) always map to distinct keys.
        width = ky.max() + 3
        key = (kx + 1) * width + (ky + 1)
        # The whole sweep runs in cell-sorted space: position s is the s-th
        # point in cell-key order, candidate ranges are direct slices of
        # that order, and only the final surviving pairs map back through
        # ``order`` to original indices.
        order = np.argsort(key, kind="stable")
        skey = key[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(skey[1:], skey[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        unique_keys = skey[starts]
        counts = np.diff(np.append(starts, n))
        sx = pts[order, 0]
        sy = pts[order, 1]
        r2 = radius * radius
        # Half stencil: the same cell (s < t dedup) plus four of the eight
        # neighbour offsets; every cross-cell block is then visited once.
        # All five offsets resolve and gather in single batched passes.
        steps = np.array([0, width, -width + 1, 1, width + 1], dtype=np.int64)
        nbr_key = (skey[None, :] + steps[:, None]).ravel()
        pos = np.searchsorted(unique_keys, nbr_key)
        pos_c = np.minimum(pos, unique_keys.size - 1)
        valid = unique_keys[pos_c] == nbr_key
        cnt = np.where(valid, counts[pos_c], 0)
        s_rep = np.repeat(np.tile(np.arange(n, dtype=np.int64), 5), cnt)
        t_cand = grouped_ranges(np.where(valid, starts[pos_c], 0), cnt)
        # Entries from the first (same-cell) block pair each point with its
        # whole bucket and occupy exactly the first ``m0`` slots of the
        # flat arrays; keep only s < t there to emit each pair once.
        m0 = int(cnt[:n].sum())
        close = np.empty(s_rep.shape[0], dtype=bool)
        np.less(s_rep[:m0], t_cand[:m0], out=close[:m0])
        close[m0:] = True
        ddx = sx[s_rep] - sx[t_cand]
        ddy = sy[s_rep] - sy[t_cand]
        close &= ddx * ddx + ddy * ddy < r2
        return order[s_rep[close]], order[t_cand[close]]


def grouped_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], starts[k] + counts[k])`` for all ``k``.

    The standard vectorised gather trick shared by the grid sweep and every
    CSR kernel: expands per-group slice descriptors into one flat index
    array without a Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total, dtype=np.int64) - offsets)
