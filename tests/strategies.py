"""Hypothesis strategies shared across the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.graph.connectivity import is_connected
from repro.graph.generators import random_geometric_network


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 24) -> Graph:
    """Arbitrary connected graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    graph = Graph(nodes=range(n))
    # Random spanning tree: attach each node i > 0 to a random earlier node.
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        graph.add_edge(i, parent)
    extra = draw(st.integers(0, min(3 * n, n * (n - 1) // 2)))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            graph.add_edge(u, v)
    assert is_connected(graph)
    return graph


@st.composite
def arbitrary_graphs(draw, max_nodes: int = 24) -> Graph:
    """Graphs that may be disconnected (isolated nodes included), with
    non-contiguous, permuted node ids so id order and insertion order
    differ."""
    n = draw(st.integers(1, max_nodes))
    ids = draw(st.permutations(range(3 * n)))[:n]
    graph = Graph(nodes=ids)
    index = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=3 * n)):
        if a != b:
            graph.add_edge(ids[a], ids[b])
    return graph


@st.composite
def geometric_networks(draw, min_nodes: int = 5, max_nodes: int = 40):
    """Connected unit-disk networks drawn from the paper's environment."""
    n = draw(st.integers(min_nodes, max_nodes))
    degree = draw(st.sampled_from([5.0, 6.0, 10.0, 14.0, 18.0]))
    # Keep the target degree feasible for the node count.
    degree = min(degree, float(n - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_geometric_network(
        n, degree, rng=seed, max_attempts=30_000
    )


@st.composite
def sources_in(draw, graph: Graph) -> int:
    """A node id of ``graph``."""
    return draw(st.sampled_from(graph.nodes()))
