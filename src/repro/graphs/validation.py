"""Structural invariant checks used by request validation, tests and the
workload generators."""

from __future__ import annotations

from repro.graphs.weighted_graph import WeightedGraph


def check_graph_invariants(graph: WeightedGraph) -> None:
    """Raise ``ValueError`` if *graph* violates a structural invariant.

    Checks symmetry of the adjacency, absence of self-loops, strictly
    positive edge weights and non-negative node weights.  It raises
    rather than asserts because request validation relies on it, and
    ``python -O`` strips assertions.
    """
    for node in graph.nodes():
        if not graph.node_weight(node) >= 0:
            raise ValueError(f"negative node weight at {node!r}")
        for neighbor, weight in graph.neighbor_items(node):
            if neighbor == node:
                raise ValueError(f"self-loop at {node!r}")
            if not weight > 0:
                raise ValueError(f"non-positive edge weight on ({node!r}, {neighbor!r})")
            if not graph.has_edge(neighbor, node):
                raise ValueError(
                    f"asymmetric adjacency: ({node!r}, {neighbor!r}) present, "
                    f"({neighbor!r}, {node!r}) missing"
                )
            if graph.edge_weight(neighbor, node) != weight:
                raise ValueError(f"asymmetric weight on ({node!r}, {neighbor!r})")
