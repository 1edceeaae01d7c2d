"""Undirected graph stored as adjacency sets.

:class:`Graph` is the library's workhorse topology type.  Design points:

* **Integer node ids** with meaningful ordering (lowest-ID clustering).
* **Set-based adjacency** — membership tests (``v in G.neighbours(u)``) are
  the hot operation in coverage-set and gateway-selection code.
* **No silent node creation** — referencing an unknown node raises
  :class:`repro.errors.NodeNotFoundError` so off-by-one id bugs surface early.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.errors import NodeNotFoundError
from repro.types import Edge, NodeId, ordered_edge


class Graph:
    """A simple undirected graph over integer node ids.

    Args:
        nodes: Initial node ids (optional).
        edges: Initial edges as ``(u, v)`` pairs; endpoints are added
            automatically.
    """

    __slots__ = ("_adj",)

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        edges: Iterable[Tuple[NodeId, NodeId]] = (),
    ) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    def add_node(self, v: NodeId) -> None:
        """Add node ``v`` (no-op if already present)."""
        self._adj.setdefault(int(v), set())

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises:
            ValueError: on a self-loop.
        """
        u, v = ordered_edge(int(u), int(v))
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def add_edges(self, edges: Iterable[Tuple[NodeId, NodeId]]) -> None:
        """Bulk edge insertion, equal to calling :meth:`add_edge` per pair.

        Each endpoint's set receives its partners in pair order; the
        unit-disk builders reproduce that insertion order in one pass.
        """
        adj = self._adj
        setdefault = adj.setdefault
        for u, v in edges:
            if u == v:
                raise ValueError(
                    f"self-loop at node {u} is not a valid MANET link"
                )
            setdefault(u, set()).add(v)
            setdefault(v, set()).add(u)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove edge ``{u, v}``; raises ``KeyError`` if absent."""
        if v not in self._adj.get(u, ()):  # also covers missing nodes
            raise KeyError(f"edge ({u}, {v}) is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_node(self, v: NodeId) -> None:
        """Remove node ``v`` and all incident edges."""
        if v not in self._adj:
            raise NodeNotFoundError(v)
        for w in self._adj.pop(v):
            self._adj[w].discard(v)

    # -- queries -----------------------------------------------------------

    def __contains__(self, v: object) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> List[NodeId]:
        """All node ids in ascending order."""
        return sorted(self._adj)

    def edges(self) -> List[Edge]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, ascending."""
        out: List[Edge] = []
        for u, nbrs in self._adj.items():
            out.extend((u, v) for v in nbrs if u < v)
        out.sort()
        return out

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return v in self._adj.get(u, ())

    def neighbours(self, v: NodeId) -> FrozenSet[NodeId]:
        """Neighbour set of ``v`` (read-only snapshot).

        Raises:
            NodeNotFoundError: if ``v`` is not in the graph.
        """
        try:
            return frozenset(self._adj[v])
        except KeyError:
            raise NodeNotFoundError(v) from None

    def neighbours_view(self, v: NodeId) -> Set[NodeId]:
        """Internal neighbour set of ``v`` — **do not mutate**.

        Avoids the copy made by :meth:`neighbours`; used by hot paths
        (coverage sets, gateway selection) that only read.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise NodeNotFoundError(v) from None

    def degree(self, v: NodeId) -> int:
        """Degree of ``v``."""
        return len(self.neighbours_view(v))

    def closed_neighbourhood(self, v: NodeId) -> Set[NodeId]:
        """``N(v) ∪ {v}`` — the paper's ``N^1(v)`` convention includes ``v``."""
        out = set(self.neighbours_view(v))
        out.add(v)
        return out

    # -- conversion ----------------------------------------------------------

    def to_csr(self):
        """The immutable :class:`~repro.graph.csr.CSRGraph` form of this graph.

        A snapshot — later mutations of this graph do not propagate.  The
        bridge the array kernels use to accelerate large set-based graphs.
        """
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_graph(self)

    @classmethod
    def from_csr(cls, csr) -> "Graph":
        """A mutable graph equal to the given :class:`~repro.graph.csr.CSRGraph`."""
        return csr.to_graph()

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Induced subgraph on ``nodes`` (unknown ids raise)."""
        keep = set(nodes)
        for v in keep:
            if v not in self._adj:
                raise NodeNotFoundError(v)
        g = Graph()
        for v in keep:
            g.add_node(v)
            for w in self._adj[v] & keep:
                g.add_edge(v, w)
        return g

    def relabelled(self, mapping: Dict[NodeId, NodeId]) -> "Graph":
        """Graph with node ids replaced via ``mapping`` (must be a bijection
        defined on every node)."""
        missing = [v for v in self._adj if v not in mapping]
        if missing:
            raise NodeNotFoundError(missing[0])
        if len(set(mapping[v] for v in self._adj)) != len(self._adj):
            raise ValueError("relabelling mapping is not injective on the node set")
        g = Graph()
        for v in self._adj:
            g.add_node(mapping[v])
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g

    def adjacency_matrix(self) -> Tuple[np.ndarray, List[NodeId]]:
        """Dense boolean adjacency matrix plus the row/column id order."""
        order = self.nodes()
        index = {v: i for i, v in enumerate(order)}
        mat = np.zeros((len(order), len(order)), dtype=bool)
        for u, v in self.edges():
            i, j = index[u], index[v]
            mat[i, j] = mat[j, i] = True
        return mat, order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
