"""A read-only memo of neighbourhood queries over a :class:`~repro.graph.adjacency.Graph`.

Every protocol layer in this library — coverage sets, gateway selection,
SI/SD-CDS broadcasting, MPR, maintenance accounting — is defined over the
same small family of topology queries: ``N(u)``, bounded-depth BFS
distances and common-neighbour intersections.  :class:`TopologyView`
computes each answer once and shares it between the layers.

The view never invalidates: it is valid only while its graph does not
change.  A :class:`~repro.cluster.state.ClusterStructure` owns one per
clustering (its graph is immutable once clustered); code that mutates a
topology builds a new structure, and with it a new view.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Tuple, Union

from repro.errors import NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.types import NodeId

#: Deepest bounded BFS the view memoizes.  3 covers every query the
#: paper's protocols issue (coverage sets look at most 3 hops out).
MAX_DEPTH = 3

#: Anything the refactored call sites accept where a topology is needed.
TopologyLike = Union[Graph, "TopologyView"]


class TopologyView:
    """Memoized neighbourhood queries over a graph that does not change.

    The view holds a *reference* to ``graph`` (no copy); the caller must not
    mutate the graph while the view is in use.  Every query returns the
    cached object itself, so a repeated query returns the identical object.

    Args:
        graph: The topology to serve queries over (shared, not copied).
    """

    __slots__ = ("_graph", "_nbr", "_sorted_nbr", "_dist", "_common")

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._nbr: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._sorted_nbr: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._dist: Dict[NodeId, Dict[int, Dict[NodeId, int]]] = {}
        self._common: Dict[Tuple[NodeId, NodeId], FrozenSet[NodeId]] = {}

    @property
    def graph(self) -> Graph:
        """The underlying graph (must not be mutated while the view lives)."""
        return self._graph

    def neighbours(self, v: NodeId) -> FrozenSet[NodeId]:
        """Memoized ``N(v)`` as a frozenset."""
        try:
            return self._nbr[v]
        except KeyError:
            out = self._nbr[v] = frozenset(self._graph.neighbours_view(v))
            return out

    def sorted_neighbours(self, v: NodeId) -> Tuple[NodeId, ...]:
        """Memoized ``N(v)`` in ascending id order (deterministic loops)."""
        try:
            return self._sorted_nbr[v]
        except KeyError:
            out = self._sorted_nbr[v] = tuple(
                sorted(self._graph.neighbours_view(v))
            )
            return out

    def distances_within(self, v: NodeId, depth: int) -> Dict[NodeId, int]:
        """Memoized bounded BFS: hop distances from ``v`` up to ``depth``.

        The returned dict is the cache entry itself — **do not mutate**
        (same contract as :meth:`Graph.neighbours_view`).

        Args:
            v: Source node.
            depth: BFS bound; must be ``0 <= depth <= MAX_DEPTH``.
        """
        if not 0 <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [0, {MAX_DEPTH}], got {depth}")
        per_node = self._dist.get(v)
        if per_node is not None and depth in per_node:
            return per_node[depth]
        if v not in self._graph:
            raise NodeNotFoundError(v)
        dist: Dict[NodeId, int] = {v: 0}
        queue: deque[NodeId] = deque([v])
        while queue:
            x = queue.popleft()
            d = dist[x]
            if d >= depth:
                continue
            for w in self._graph.neighbours_view(x):
                if w not in dist:
                    dist[w] = d + 1
                    queue.append(w)
        self._dist.setdefault(v, {})[depth] = dist
        return dist

    def common_neighbours(self, u: NodeId, v: NodeId) -> FrozenSet[NodeId]:
        """Memoized ``N(u) ∩ N(v)`` (witness discovery's hot operation)."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._common[key]
        except KeyError:
            out = self._common[key] = self.neighbours(u) & self.neighbours(v)
            return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopologyView(n={self._graph.num_nodes})"


def as_view(topology: TopologyLike) -> TopologyView:
    """Adapt ``topology`` to a :class:`TopologyView`.

    A :class:`TopologyView` is returned unchanged; a plain
    :class:`~repro.graph.adjacency.Graph` is wrapped in a fresh view.  This
    is the adapter that keeps every plain-``Graph`` public signature working
    — wrapping is O(1) and queries are computed lazily, so one-shot callers
    pay nothing for the cache they do not reuse.
    """
    if isinstance(topology, TopologyView):
        return topology
    if isinstance(topology, Graph):
        return TopologyView(topology)
    raise TypeError(
        f"expected Graph or TopologyView, got {type(topology).__name__}"
    )
