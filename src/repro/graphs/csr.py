"""Immutable array-graph (CSR) fast path over :class:`WeightedGraph`.

The dict-of-dict :class:`~repro.graphs.weighted_graph.WeightedGraph` is
the right structure for *building* and *mutating* graphs (compression
merges, workload generation), but array read paths — Laplacian
assembly, cut evaluation — would pay Python-level hashing per edge
visit.  :class:`CSRGraph` freezes a weighted graph into four numpy
arrays in compressed-sparse-row layout:

* ``indptr``  — ``int64[n + 1]``; node ``i``'s incident edges occupy the
  half-open slice ``indptr[i]:indptr[i + 1]``;
* ``indices`` — ``int64[2m]``; the neighbor *index* of each incidence,
  in the adjacency-dict insertion order of the source graph (so array
  traversals visit neighbors in exactly the order dict traversals do);
* ``edge_weight`` — ``float64[2m]``; the communication weight aligned
  with ``indices``;
* ``node_weight`` — ``float64[n]``; the computation weight per node.

The node *order* (index -> original node id) defaults to the graph's
insertion order, matching ``WeightedGraph.node_list()`` — eigenvector
entries and part indices line up without translation.

A ``CSRGraph`` is a snapshot: mutating the source graph afterwards does
not invalidate it (nothing is shared), and it deliberately exposes a
read-only subset of the ``WeightedGraph`` API (``node_count``,
``node_list``, ``has_node``, ``cut_weight``, ...) so the spectral stack
can accept either representation.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable


class CSRGraph:
    """Immutable int-indexed array view of a weighted undirected graph.

    >>> g = WeightedGraph()
    >>> g.add_node("a", weight=2.0); g.add_node("b"); g.add_node("c")
    >>> g.add_edge("a", "b", weight=3.0); g.add_edge("b", "c", weight=1.0)
    >>> csr = CSRGraph.from_graph(g)
    >>> csr.node_count, csr.edge_count
    (3, 2)
    >>> csr.weighted_degrees().tolist()
    [3.0, 4.0, 1.0]
    """

    __slots__ = (
        "nodes",
        "index",
        "indptr",
        "indices",
        "edge_weight",
        "node_weight",
    )

    def __init__(
        self,
        nodes: list[NodeId],
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_weight: np.ndarray,
        node_weight: np.ndarray,
    ) -> None:
        self.nodes: list[NodeId] = nodes
        self.index: dict[NodeId, int] = {node: i for i, node in enumerate(nodes)}
        self.indptr = indptr
        self.indices = indices
        self.edge_weight = edge_weight
        self.node_weight = node_weight
        for array in (indptr, indices, edge_weight, node_weight):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: WeightedGraph, order: Sequence[NodeId] | None = None
    ) -> "CSRGraph":
        """Freeze *graph* into CSR arrays under the given node *order*.

        The default order is the graph's insertion order; an explicit
        order must cover every node exactly once.  Per-node incidence
        lists preserve the adjacency-dict insertion order, so any
        traversal over the arrays is bit-for-bit reproducible against
        the dict path.
        """
        nodes = list(order) if order is not None else graph.node_list()
        if len(set(nodes)) != len(nodes):
            raise ValueError("node order contains duplicates")
        if len(nodes) != graph.node_count:
            raise ValueError("node order must cover every node exactly once")
        index: dict[NodeId, int] = {}
        for position, node in enumerate(nodes):
            if not graph.has_node(node):
                raise KeyError(f"node {node!r} does not exist")
            index[node] = position

        n = len(nodes)
        indptr = np.zeros(n + 1, dtype=np.int64)
        neighbor_ids: list[int] = []
        weights: list[float] = []
        for position, node in enumerate(nodes):
            for neighbor, weight in graph.neighbor_items(node):
                neighbor_ids.append(index[neighbor])
                weights.append(weight)
            indptr[position + 1] = len(neighbor_ids)
        return cls(
            nodes=nodes,
            indptr=indptr,
            indices=np.asarray(neighbor_ids, dtype=np.int64),
            edge_weight=np.asarray(weights, dtype=np.float64),
            node_weight=np.array(
                [graph.node_weight(node) for node in nodes], dtype=np.float64
            ),
        )

    # ------------------------------------------------------------------
    # WeightedGraph-compatible read API
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (each incidence stored twice)."""
        return int(self.indices.shape[0]) // 2

    def node_list(self) -> list[NodeId]:
        return list(self.nodes)

    def has_node(self, node: NodeId) -> bool:
        return node in self.index

    def neighbor_items(self, node: NodeId) -> Iterator[tuple[NodeId, float]]:
        """Iterate ``(neighbor, weight)`` pairs, dict-insertion order."""
        i = self.index[node]
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        for k in range(start, end):
            yield self.nodes[self.indices[k]], float(self.edge_weight[k])

    def cut_weight(self, part: Iterable[NodeId]) -> float:
        """Weight of the cut separating *part* from the rest (formula (8))."""
        mask = np.zeros(self.node_count, dtype=bool)
        for node in part:
            mask[self.index[node]] = True
        crossing = mask[self.incidence_rows()] & ~mask[self.indices]
        return float(self.edge_weight[crossing].sum())

    def __len__(self) -> int:
        return self.node_count

    def __contains__(self, node: NodeId) -> bool:
        return node in self.index

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(nodes={self.node_count}, edges={self.edge_count})"

    # ------------------------------------------------------------------
    # Array derivations
    # ------------------------------------------------------------------
    def incidence_rows(self) -> np.ndarray:
        """Source-node index of every incidence (``int64[2m]``).

        ``incidence_rows()[k]`` is the node whose incidence slice contains
        position ``k`` — the row array pairing with :attr:`indices` /
        :attr:`edge_weight` that every scatter/gather kernel needs.
        """
        return np.repeat(np.arange(self.node_count), np.diff(self.indptr))

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree per node — the Laplacian diagonal."""
        return np.bincount(
            self.incidence_rows(), weights=self.edge_weight, minlength=self.node_count
        )

    def adjacency_matrix(self) -> np.ndarray:
        """Dense weighted adjacency ``A`` aligned with :attr:`nodes`."""
        n = self.node_count
        matrix = np.zeros((n, n), dtype=float)
        matrix[self.incidence_rows(), self.indices] = self.edge_weight
        return matrix

    def laplacian_matrix(self) -> np.ndarray:
        """Dense combinatorial Laplacian ``L = D - A``."""
        adjacency = self.adjacency_matrix()
        return np.diag(adjacency.sum(axis=1)) - adjacency

    def sparse_laplacian(self) -> sparse.csr_matrix:
        """Sparse CSR Laplacian assembled directly from the arrays."""
        n = self.node_count
        off_diagonal = sparse.csr_matrix(
            (-self.edge_weight, self.indices.copy(), self.indptr.copy()),
            shape=(n, n),
            dtype=np.float64,
        )
        return (off_diagonal + sparse.diags(self.weighted_degrees(), format="csr")).tocsr()


def as_csr(
    graph: "WeightedGraph | CSRGraph", order: Sequence[NodeId] | None = None
) -> CSRGraph:
    """Return *graph* as a :class:`CSRGraph`, freezing it if necessary.

    An existing ``CSRGraph`` is passed through unchanged when *order* is
    ``None`` or already matches; a differing order triggers an error —
    re-freezing an immutable snapshot under a new order indicates the
    caller lost track of which representation it holds.
    """
    if isinstance(graph, CSRGraph):
        if order is not None and list(order) != graph.nodes:
            raise ValueError("cannot reorder an existing CSRGraph")
        return graph
    return CSRGraph.from_graph(graph, order)


__all__ = ["CSRGraph", "as_csr"]
