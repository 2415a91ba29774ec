"""Fiduccia-Mattheyses-style single-move refinement.

Unlike KL's pairwise swaps, FM moves one node at a time across the cut,
subject to a balance constraint.  The ``multilevel-kl`` strategy uses it
to polish each uncoarsened level, and the cut-algorithm ablation bench
measures how much cut weight it recovers after Kernighan-Lin.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable


def fm_refine(
    graph: WeightedGraph,
    part_one: Iterable[NodeId],
    max_passes: int = 5,
    min_side_fraction: float = 0.1,
) -> tuple[set[NodeId], set[NodeId], float]:
    """Refine a bipartition by greedy single-node moves.

    Returns ``(part_one, part_two, cut_value)``.  A move is admissible
    when the shrinking side keeps at least ``min_side_fraction`` of the
    nodes (so refinement cannot collapse the partition to one side, which
    would trivially zero the cut and destroy the offloading decision).
    """
    side: dict[NodeId, int] = {}
    one = set(part_one)
    for node in graph.nodes():
        side[node] = 0 if node in one else 1
    n = graph.node_count
    if n <= 2:
        part_two = {node for node in graph.nodes() if side[node] == 1}
        return one, part_two, graph.cut_weight(one)

    min_side = max(1, int(min_side_fraction * n))

    for _ in range(max_passes):
        moved = _fm_pass(graph, side, min_side)
        if not moved:
            break

    final_one = {node for node, s in side.items() if s == 0}
    final_two = set(graph.nodes()) - final_one
    return final_one, final_two, graph.cut_weight(final_one)


def _gain(graph: WeightedGraph, side: dict[NodeId, int], node: NodeId) -> float:
    """Cut reduction if *node* moved to the other side."""
    external = 0.0
    internal = 0.0
    for neighbor, weight in graph.neighbor_items(node):
        if side[neighbor] == side[node]:
            internal += weight
        else:
            external += weight
    return external - internal


def _fm_pass(graph: WeightedGraph, side: dict[NodeId, int], min_side: int) -> bool:
    """One FM pass with rollback to the best prefix; returns improvement."""
    locked: set[NodeId] = set()
    history: list[NodeId] = []
    gains: list[float] = []
    counts = [sum(1 for s in side.values() if s == 0), sum(1 for s in side.values() if s == 1)]

    while len(locked) < graph.node_count:
        best_node: NodeId | None = None
        best_gain = -float("inf")
        for node in graph.nodes():
            if node in locked:
                continue
            if counts[side[node]] - 1 < min_side:
                continue
            gain = _gain(graph, side, node)
            if gain > best_gain:
                best_gain = gain
                best_node = node
        if best_node is None:
            break
        origin = side[best_node]
        side[best_node] = 1 - origin
        counts[origin] -= 1
        counts[1 - origin] += 1
        locked.add(best_node)
        history.append(best_node)
        gains.append(best_gain)

    best_total = 0.0
    best_k = 0
    running = 0.0
    for k, gain in enumerate(gains, start=1):
        running += gain
        if running > best_total + 1e-12:
            best_total = running
            best_k = k

    # Roll back moves beyond the best prefix.
    for node in history[best_k:]:
        origin = side[node]
        side[node] = 1 - origin
    return best_k > 0
