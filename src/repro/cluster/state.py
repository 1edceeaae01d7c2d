"""Cluster structure data types.

A finished clustering assigns every node either the ``CLUSTERHEAD`` role or
the ``MEMBER`` role; each member belongs to exactly one *adjacent*
clusterhead.  :class:`ClusterStructure` is an immutable view over that
assignment with the derived queries the rest of the library needs (role
lookup, members-of, neighbouring-clusterheads-of).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Set

import numpy as np

from repro.errors import ClusteringError, NodeNotFoundError
from repro.graph.adjacency import Graph
from repro.types import NodeId, NodeRole


@dataclass(frozen=True, slots=True)
class Cluster:
    """One cluster: its head and its non-head members."""

    head: NodeId
    members: FrozenSet[NodeId]

    @property
    def size(self) -> int:
        """Total number of nodes in the cluster, head included."""
        return 1 + len(self.members)


@dataclass(frozen=True)
class ClusterStructure:
    """An immutable clustering of a graph.

    Attributes:
        graph: The clustered network.
        head_of: Every node id mapped to its clusterhead's id; clusterheads
            map to themselves.
    """

    graph: Graph
    head_of: Mapping[NodeId, NodeId]

    def __post_init__(self) -> None:
        nodes = set(self.graph.nodes())
        if set(self.head_of) != nodes:
            raise ClusteringError("head_of must assign every node exactly once")
        for v, h in self.head_of.items():
            if h not in nodes:
                raise ClusteringError(f"node {v} assigned to unknown head {h}")
            if v != h and not self.graph.has_edge(v, h):
                raise ClusteringError(
                    f"member {v} is not adjacent to its clusterhead {h}"
                )
        heads = {h for h in self.head_of.values()}
        for h in heads:
            if self.head_of[h] != h:
                raise ClusteringError(
                    f"clusterhead {h} of some member is itself a member of "
                    f"{self.head_of[h]}"
                )

    @cached_property
    def topology(self):
        """A shared :class:`~repro.topology.view.TopologyView` over the graph.

        Lazily constructed once per structure, so every coverage set,
        gateway selection and broadcast computed over this clustering reuses
        the same memoized neighbourhood queries.  Valid for the structure's
        lifetime because both the structure and (by convention) its graph
        are immutable once clustered.
        """
        # Local import: repro.topology is a lower layer but its package
        # __init__ pulls in modules that import this one.
        from repro.topology.view import TopologyView

        return TopologyView(self.graph)

    @cached_property
    def csr(self):
        """A :class:`~repro.graph.csr.CSRGraph` snapshot of the graph.

        Built once per structure; the array kernels (coverage, gateway
        selection) pull it from here so the object-layer entry points can
        dispatch to CSR at scale without re-converting per call.
        """
        return self.graph.to_csr()

    @cached_property
    def head_row(self):
        """Per-CSR-row clusterhead assignment as an int array.

        ``head_row[r]`` is the row (rank in id order) of row ``r``'s
        clusterhead — the form the CSR coverage kernels consume.
        """
        ids = self.csr.ids
        head_ids = np.asarray([self.head_of[v] for v in ids.tolist()])
        return np.searchsorted(ids, head_ids)

    @cached_property
    def clusterheads(self) -> FrozenSet[NodeId]:
        """All clusterhead ids."""
        return frozenset(h for v, h in self.head_of.items() if v == h)

    @cached_property
    def clusters(self) -> Dict[NodeId, Cluster]:
        """Mapping head id -> :class:`Cluster`."""
        members: Dict[NodeId, Set[NodeId]] = {h: set() for h in self.clusterheads}
        for v, h in self.head_of.items():
            if v != h:
                members[h].add(v)
        return {h: Cluster(head=h, members=frozenset(ms)) for h, ms in members.items()}

    def role(self, v: NodeId) -> NodeRole:
        """Role of node ``v`` (clusterhead or member)."""
        try:
            h = self.head_of[v]
        except KeyError:
            raise NodeNotFoundError(v) from None
        return NodeRole.CLUSTERHEAD if h == v else NodeRole.MEMBER

    def is_clusterhead(self, v: NodeId) -> bool:
        """Whether ``v`` is a clusterhead."""
        return self.head_of.get(v, None) == v

    def members(self, head: NodeId) -> FrozenSet[NodeId]:
        """Non-head members of ``head``'s cluster.

        Raises:
            ClusteringError: if ``head`` is not a clusterhead.
        """
        if not self.is_clusterhead(head):
            raise ClusteringError(f"node {head} is not a clusterhead")
        return self.clusters[head].members

    def neighbouring_clusterheads(self, v: NodeId) -> FrozenSet[NodeId]:
        """Clusterheads adjacent to ``v`` — the content of ``v``'s CH_HOP1.

        For the node's own head this includes the head itself (when adjacent),
        matching the ``h*`` entries of the paper's CH_HOP1 examples.
        """
        if v not in self.graph:
            raise NodeNotFoundError(v)
        heads = self.clusterheads
        return frozenset(w for w in self.graph.neighbours_view(v) if w in heads)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusterheads)

    def sorted_heads(self) -> List[NodeId]:
        """Clusterheads in ascending id order (deterministic iteration)."""
        return sorted(self.clusterheads)
