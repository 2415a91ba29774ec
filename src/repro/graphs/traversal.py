"""Graph traversal primitives (BFS) used across the library.

Label propagation (Algorithm 1) walks the graph breadth-first (the paper
allows "depth-first or breadth-first policies"); the max-flow baseline
needs BFS shortest paths; the s-t selection heuristic needs eccentricity.
All of those build on the orders defined here.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable


def bfs_order(graph: WeightedGraph, start: NodeId) -> list[NodeId]:
    """Return nodes reachable from *start* in breadth-first order.

    Neighbor visitation follows adjacency insertion order, which keeps the
    traversal deterministic for a deterministically built graph.
    """
    if not graph.has_node(start):
        raise KeyError(f"node {start!r} does not exist")
    visited = {start}
    order = [start]
    queue: deque[NodeId] = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in visited:
                visited.add(neighbor)
                order.append(neighbor)
                queue.append(neighbor)
    return order


def bfs_tree(graph: WeightedGraph, start: NodeId) -> dict[NodeId, NodeId | None]:
    """Return a BFS parent map rooted at *start* (root maps to ``None``)."""
    if not graph.has_node(start):
        raise KeyError(f"node {start!r} does not exist")
    parents: dict[NodeId, NodeId | None] = {start: None}
    queue: deque[NodeId] = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parents:
                parents[neighbor] = node
                queue.append(neighbor)
    return parents


def hop_distances(graph: WeightedGraph, start: NodeId) -> dict[NodeId, int]:
    """Return unweighted hop distances from *start* to every reachable node."""
    if not graph.has_node(start):
        raise KeyError(f"node {start!r} does not exist")
    distances = {start: 0}
    queue: deque[NodeId] = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def eccentricity(graph: WeightedGraph, node: NodeId) -> int:
    """Return the maximum hop distance from *node* to any reachable node."""
    return max(hop_distances(graph, node).values())


def farthest_node(graph: WeightedGraph, start: NodeId) -> NodeId:
    """Return a node at maximum hop distance from *start*.

    Used by the max-flow baseline to pick a sink far away from the source;
    ties break toward the earliest-discovered node, keeping the choice
    deterministic.
    """
    distances = hop_distances(graph, start)
    best = start
    best_distance = -1
    for candidate, distance in distances.items():
        if distance > best_distance:
            best = candidate
            best_distance = distance
    return best
