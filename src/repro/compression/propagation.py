"""The label propagation process of Algorithm 1.

Starting from the node with the largest degree (the paper's
``Largest_outdegree``; the data-flow graph is undirected, so degree plays
the role of out-degree, with weighted degree as tie-break), labels spread
along *strong* edges — edges heavier than the rule threshold.  A node
reached over a weak edge receives a fresh label.  Rounds repeat until a
:class:`~repro.compression.termination.TerminationCriteria` fires.

The propagation is deterministic: traversal order is BFS from the
starter (the paper allows depth- or breadth-first; this reproduction
runs breadth-first), and a node adopting a label from several strong
labeled neighbors takes the one across its heaviest strong edge (ties
break toward the earlier-labeled neighbor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

from repro.compression.labels import ThresholdRule
from repro.compression.termination import TerminationCriteria
from repro.graphs.traversal import bfs_order
from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable


@dataclass
class PropagationReport:
    """Outcome of a full propagation run on one sub-graph."""

    labels: dict[NodeId, int]
    rounds: int
    updates_per_round: list[int] = field(default_factory=list)
    threshold: float = 0.0
    starter: NodeId | None = None

    @property
    def cluster_count(self) -> int:
        """Number of distinct labels in the final assignment."""
        return len(set(self.labels.values()))


def select_starter(graph: WeightedGraph) -> NodeId:
    """Return the propagation starter: the max-degree node.

    Ties break by weighted degree and then by insertion order, keeping the
    choice deterministic.
    """
    if graph.node_count == 0:
        raise ValueError("cannot select a starter in an empty graph")
    best: NodeId | None = None
    best_key: tuple[int, float] | None = None
    for node in graph.nodes():
        key = (graph.degree(node), graph.weighted_degree(node))
        if best_key is None or key > best_key:
            best = node
            best_key = key
    return best


class LabelPropagation:
    """Runs the threshold-guided label propagation on one sub-graph.

    Each run lists every node's strong ``(neighbor, weight)`` pairs once,
    in adjacency order; each round is then a scan of the visit order over
    those lists.  Propagation runs once per connected component of the
    offloadable subgraph, and those components stay small (tens of nodes
    even on thousand-function applications), so the plain list walk is
    the only kernel.
    """

    def __init__(
        self,
        threshold_rule: ThresholdRule,
        termination: TerminationCriteria | None = None,
    ) -> None:
        self.threshold_rule = threshold_rule
        self.termination = termination or TerminationCriteria()

    def run(self, graph: WeightedGraph) -> PropagationReport:
        """Propagate labels over *graph* and return the final assignment.

        Works on disconnected graphs too: each connected piece gets its own
        starter (the global traversal restarts from the best remaining
        node), so every node ends up labeled.
        """
        if graph.node_count == 0:
            return PropagationReport(labels={}, rounds=0)

        threshold = self.threshold_rule.threshold(graph)
        starter = select_starter(graph)
        order = self._visit_order(graph, starter)

        # Only edges above the threshold carry labels; list them once, in
        # adjacency order, instead of re-filtering every round.
        strong = {
            node: [(nbr, w) for nbr, w in graph.neighbor_items(node) if w > threshold]
            for node in order
        }

        labels: dict[NodeId, int] = {}
        next_label = 0
        rounds = 0
        updates_per_round: list[int] = []
        while True:
            updates = 0
            for node in order:
                proposed = self._propose_label(strong[node], labels)
                if proposed is None:
                    if node not in labels:
                        labels[node] = next_label
                        next_label += 1
                        updates += 1
                    continue
                if labels.get(node) != proposed:
                    labels[node] = proposed
                    updates += 1
            rounds += 1
            updates_per_round.append(updates)
            if self.termination.should_stop(updates, graph.node_count, rounds):
                break

        return PropagationReport(
            labels=labels,
            rounds=rounds,
            updates_per_round=updates_per_round,
            threshold=threshold,
            starter=starter,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _visit_order(self, graph: WeightedGraph, starter: NodeId) -> list[NodeId]:
        """Full BFS visitation order covering every node (all components)."""
        order = bfs_order(graph, starter)
        visited = set(order)
        for node in graph.nodes():
            if node in visited:
                continue
            extra = bfs_order(graph, node)
            order.extend(extra)
            visited.update(extra)
        return order

    @staticmethod
    def _propose_label(
        strong: list[tuple[NodeId, float]],
        labels: dict[NodeId, int],
    ) -> int | None:
        """Label a node should adopt, or ``None`` if no strong labeled neighbor.

        *strong* is the node's ``(neighbor, weight)`` list over edges
        heavier than the threshold.  Among labeled neighbors, take the
        label over the heaviest edge; break weight ties toward the oldest
        label so repeated rounds converge instead of oscillating.  Labels
        are born in increasing order, so the oldest is the smallest.
        """
        best_label: int | None = None
        best_weight = 0.0
        for neighbor, weight in strong:
            candidate = labels.get(neighbor)
            if candidate is None:
                continue
            if (
                best_label is None
                or weight > best_weight
                or (weight == best_weight and candidate < best_label)
            ):
                best_label = candidate
                best_weight = weight
        return best_label
