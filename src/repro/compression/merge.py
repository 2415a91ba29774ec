"""Node merging: turning a labeled graph into its compressed graph.

The paper's compression rule: "Any two nodes which are in the same cluster
and are connected directly will be merged into one node."  Merging thus
fuses the connected pieces of the *monochromatic edges* (same label on
both ends), found with one walk over same-label neighbours; each
resulting super-node carries the summed computation weight of its members,
and parallel edges between super-nodes accumulate their communication
weights.  Intra-super-node edges vanish — that traffic can never be cut,
which is exactly the guarantee compression exists to provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable

from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable

_INF = float("inf")


@dataclass
class CompressedGraph:
    """A compressed graph plus the bookkeeping to expand results back.

    ``graph`` uses dense integer super-node ids ``0..k-1``; ``clusters[i]``
    is the set of original node ids fused into super-node ``i``.
    """

    graph: WeightedGraph
    clusters: list[set[NodeId]]
    original_node_count: int
    original_edge_count: int
    membership: dict[NodeId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.membership:
            self.membership = {
                member: i for i, cluster in enumerate(self.clusters) for member in cluster
            }

    def expand(self, super_nodes: Iterable[int]) -> set[NodeId]:
        """Original node ids covered by the given super-node ids."""
        result: set[NodeId] = set()
        for super_node in super_nodes:
            result.update(self.clusters[super_node])
        return result

    def super_node_of(self, original: NodeId) -> int:
        """Super-node id containing the original node."""
        if original not in self.membership:
            raise KeyError(f"node {original!r} is not part of this compression")
        return self.membership[original]

    @property
    def node_reduction(self) -> float:
        """Fraction of nodes eliminated (0 when nothing merged)."""
        if self.original_node_count == 0:
            return 0.0
        return 1.0 - self.graph.node_count / self.original_node_count

    @property
    def edge_reduction(self) -> float:
        """Fraction of edges eliminated."""
        if self.original_edge_count == 0:
            return 0.0
        return 1.0 - self.graph.edge_count / self.original_edge_count


def merge_labeled_graph(graph: WeightedGraph, labels: dict[NodeId, int]) -> CompressedGraph:
    """Compress *graph* under the given label assignment.

    Every node must be labeled.  Two nodes merge iff they share a label
    *and* are connected (possibly transitively through same-label edges),
    per the paper's rule.  One walk over same-label neighbours finds each
    cluster, started from its first member in insertion order, so cluster
    ids follow that order.  Super-edges accumulate in
    :meth:`~repro.graphs.weighted_graph.WeightedGraph.edges` order.
    """
    for node in graph.nodes():
        if node not in labels:
            raise ValueError(f"node {node!r} has no label")

    cluster_of: dict[NodeId, int] = {}
    clusters: list[set[NodeId]] = []
    for node in graph.nodes():
        if node in cluster_of:
            continue
        cluster_id = len(clusters)
        label = labels[node]
        cluster_of[node] = cluster_id
        stack = [node]
        while stack:
            for neighbor in graph.neighbors(stack.pop()):
                if neighbor not in cluster_of and labels[neighbor] == label:
                    cluster_of[neighbor] = cluster_id
                    stack.append(neighbor)
        clusters.append(set())
    # Each super-node's weight is summed in member insertion order, never
    # in set order: a set of strings iterates in hash order, so its float
    # sum would change with PYTHONHASHSEED.
    node_weights: dict[NodeId, float] = {i: 0.0 for i in range(len(clusters))}
    for node in graph.nodes():
        cluster_id = cluster_of[node]
        clusters[cluster_id].add(node)
        node_weights[cluster_id] += graph.node_weight(node)
    # Each stored weight is finite, but a sum of them may not be; refuse
    # it here as the public builders would.
    for cluster_id, weight in node_weights.items():
        if weight == _INF:
            raise ValueError(f"super-node {cluster_id} weight overflows")
    adjacency: dict[NodeId, dict[NodeId, float]] = {i: {} for i in range(len(clusters))}
    for u, v, w in graph.edges():
        cu = cluster_of[u]
        cv = cluster_of[v]
        if cu != cv:  # parallel super-edges accumulate
            merged = adjacency[cu].get(cv, 0.0) + w
            if merged == _INF:
                raise ValueError(f"super-edge ({cu}, {cv}) weight overflows")
            adjacency[cu][cv] = merged
            adjacency[cv][cu] = merged
    compressed = WeightedGraph._assemble(
        node_weights,
        {i: {"size": len(cluster)} for i, cluster in enumerate(clusters)},
        adjacency,
    )

    return CompressedGraph(
        graph=compressed,
        clusters=clusters,
        original_node_count=graph.node_count,
        original_edge_count=graph.edge_count,
        membership=cluster_of,
    )
