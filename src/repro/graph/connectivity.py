"""Connectivity predicates: components, connectedness, strong connectivity.

The paper discards disconnected random networks, and Theorem 1 rests on the
*strong* connectivity of the directed cluster graph, so both undirected and
directed checks live here.  Directed graphs are represented as plain
``dict[node, set[node]]`` successor maps (the cluster graph is tiny).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Set

from repro.graph.adjacency import Graph
from repro.types import NodeId


def connected_components(graph: Graph) -> List[Set[NodeId]]:
    """Connected components, each as a node set, largest-first."""
    seen: Set[NodeId] = set()
    comps: List[Set[NodeId]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        comp = {start}
        queue: deque[NodeId] = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbours_view(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    comps.sort(key=len, reverse=True)
    return comps


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    n = graph.num_nodes
    if n <= 1:
        return True
    start = next(iter(graph))
    seen = {start}
    queue: deque[NodeId] = deque([start])
    while queue:
        v = queue.popleft()
        for w in graph.neighbours_view(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def _directed_reach(succ: Mapping[NodeId, Set[NodeId]], start: NodeId) -> Set[NodeId]:
    seen = {start}
    queue: deque[NodeId] = deque([start])
    while queue:
        v = queue.popleft()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def is_strongly_connected(successors: Mapping[NodeId, Set[NodeId]]) -> bool:
    """Strong connectivity of a directed graph given as a successor map.

    Every node must appear as a key (possibly with an empty successor set).
    Uses the classic two-BFS test: all nodes reachable from an arbitrary
    root in the graph and in its transpose.
    """
    nodes = set(successors)
    for targets in successors.values():
        stray = targets - nodes
        if stray:
            raise KeyError(f"successor {next(iter(stray))} missing from node set")
    if len(nodes) <= 1:
        return True
    root = next(iter(nodes))
    if _directed_reach(successors, root) != nodes:
        return False
    transpose: Dict[NodeId, Set[NodeId]] = {v: set() for v in nodes}
    for v, targets in successors.items():
        for w in targets:
            transpose[w].add(v)
    return _directed_reach(transpose, root) == nodes
