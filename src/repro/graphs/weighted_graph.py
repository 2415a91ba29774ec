"""The core weighted undirected graph data structure.

Nodes carry a finite non-negative *computation weight* and arbitrary
metadata; edges carry a finite positive *communication weight* (``NaN``
and infinities are rejected).  This mirrors the function data flow graph
of Section II of the paper: ``w_j^i`` is the node weight and
``s(v_j^i, v_l^i)`` is the edge weight.

The structure is a plain adjacency map (dict-of-dict) which keeps neighbor
iteration, edge lookup and node/edge mutation O(1) amortised — the label
propagation and merge passes of Algorithm 1 are linear scans over this
representation.  The derived views cost what they touch: :meth:`~WeightedGraph.edges`
is O(V + E) with no per-edge allocation, and :meth:`~WeightedGraph.subgraph`
walks the parent's node list once plus only the kept nodes' adjacency.  Both
keep a fixed order — node insertion order, then each node's neighbour order —
so every algorithm built on them is deterministic.

Weights are validated once, at the public builders and mutators
(:meth:`~WeightedGraph.add_node`, :meth:`~WeightedGraph.add_edge` including
a parallel edge's sum, the ``set_*`` methods and
:meth:`~WeightedGraph.merge_nodes` — and so at every HTTP and CLI input).  Derivations (:meth:`~WeightedGraph.subgraph`,
:meth:`~WeightedGraph.copy`, the compression merge) trust their source graph
and fill the dicts directly instead of re-checking every weight.

Every graph carries a mutation counter, :attr:`~WeightedGraph.version`.  Each
of the seven mutators (``add_node``, ``remove_node``, ``set_node_weight``,
``add_edge``, ``set_edge_weight``, ``remove_edge``, ``merge_nodes``) bumps it
*after* its change is in place, so a reader that records the version before
reading the graph never pairs a new version with old content.  Derived graphs
start at version 0.  Content-derived values (the call graph's fingerprint
memo) stay valid while the version they were computed at still matches.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

NodeId = Hashable

_INF = float("inf")


class WeightedGraph:
    """Undirected graph with weighted nodes and weighted edges.

    >>> g = WeightedGraph()
    >>> g.add_node("f1", weight=4.0)
    >>> g.add_node("f2", weight=2.0)
    >>> g.add_edge("f1", "f2", weight=10.0)
    >>> g.edge_weight("f2", "f1")
    10.0
    >>> g.total_node_weight()
    6.0
    """

    def __init__(self) -> None:
        self._node_weights: dict[NodeId, float] = {}
        self._node_data: dict[NodeId, dict[str, Any]] = {}
        self._adjacency: dict[NodeId, dict[NodeId, float]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every mutator, after its change."""
        return self._version

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId, float]],
        node_weights: Mapping[NodeId, float] | None = None,
        default_node_weight: float = 1.0,
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Nodes referenced by edges are created on demand; explicit weights
        may be supplied via *node_weights*.
        """
        graph = cls()
        weights = dict(node_weights or {})
        for u, v, w in edges:
            for node in (u, v):
                if not graph.has_node(node):
                    graph.add_node(node, weight=weights.pop(node, default_node_weight))
            graph.add_edge(u, v, weight=w)
        for node, weight in weights.items():
            if graph.has_node(node):
                graph.set_node_weight(node, weight)
            else:
                graph.add_node(node, weight=weight)
        return graph

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, weight: float = 1.0, **data: Any) -> None:
        """Add *node* with the given computation weight and metadata.

        Adding an existing node raises ``ValueError`` — silently resetting a
        node's adjacency would corrupt compression bookkeeping.
        """
        if node in self._adjacency:
            raise ValueError(f"node {node!r} already exists")
        if not 0 <= weight < _INF:
            raise ValueError(f"node weight must be finite and >= 0, got {weight!r}")
        self._node_weights[node] = float(weight)
        self._node_data[node] = dict(data)
        self._adjacency[node] = {}
        self._version += 1

    def remove_node(self, node: NodeId) -> None:
        """Remove *node* and all incident edges."""
        self._require_node(node)
        for neighbor in list(self._adjacency[node]):
            del self._adjacency[neighbor][node]
        del self._adjacency[node]
        del self._node_weights[node]
        del self._node_data[node]
        self._version += 1

    def has_node(self, node: NodeId) -> bool:
        """Whether *node* is present."""
        return node in self._adjacency

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids (insertion order)."""
        return iter(self._adjacency)

    def node_list(self) -> list[NodeId]:
        """Return node ids as a list (insertion order)."""
        return list(self._adjacency)

    def node_weight(self, node: NodeId) -> float:
        """Return the computation weight of *node*."""
        self._require_node(node)
        return self._node_weights[node]

    def set_node_weight(self, node: NodeId, weight: float) -> None:
        """Replace the computation weight of *node*."""
        self._require_node(node)
        if not 0 <= weight < _INF:
            raise ValueError(f"node weight must be finite and >= 0, got {weight!r}")
        self._node_weights[node] = float(weight)
        self._version += 1

    def node_data(self, node: NodeId) -> dict[str, Any]:
        """Return the mutable metadata dict attached to *node*."""
        self._require_node(node)
        return self._node_data[node]

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: NodeId, v: NodeId, weight: float = 1.0) -> None:
        """Add an undirected edge; both endpoints must already exist.

        Self-loops are rejected (a function does not transmit to itself);
        adding a parallel edge *accumulates* its weight, matching the data
        flow semantics where multiple call sites between the same pair of
        functions add up their traffic.  A sum that overflows is rejected
        like an infinite weight.
        """
        self._require_node(u)
        self._require_node(v)
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        if not 0 < weight < _INF:
            raise ValueError(f"edge weight must be finite and > 0, got {weight!r}")
        new_weight = self._adjacency[u].get(v, 0.0) + float(weight)
        if new_weight == _INF:
            raise ValueError(f"accumulated weight of edge ({u!r}, {v!r}) overflows")
        self._adjacency[u][v] = new_weight
        self._adjacency[v][u] = new_weight
        self._version += 1

    def set_edge_weight(self, u: NodeId, v: NodeId, weight: float) -> None:
        """Overwrite (rather than accumulate) the weight of edge (u, v)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) does not exist")
        if not 0 < weight < _INF:
            raise ValueError(f"edge weight must be finite and > 0, got {weight!r}")
        self._adjacency[u][v] = float(weight)
        self._adjacency[v][u] = float(weight)
        self._version += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge between *u* and *v*."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._version += 1

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether an edge between *u* and *v* exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Return the communication weight of edge (u, v)."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) does not exist")
        return self._adjacency[u][v]

    def edges(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Iterate over edges once each as ``(u, v, weight)``.

        Each undirected edge is yielded exactly once, when the walk over
        nodes in insertion order first reaches one of its endpoints: that
        endpoint is ``u``, and edges come in ``u``'s neighbour order.
        Costs O(V + E) with no per-edge allocation — a node is marked done
        once its adjacency is walked, and a half-edge back to a done node
        is the duplicate.
        """
        done: set[NodeId] = set()
        for u, neighbors in self._adjacency.items():
            for v, w in neighbors.items():
                if v not in done:
                    yield (u, v, w)
            done.add(u)

    def edge_list(self) -> list[tuple[NodeId, NodeId, float]]:
        """Return all edges as a list."""
        return list(self.edges())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the neighbors of *node*."""
        self._require_node(node)
        return iter(self._adjacency[node])

    def neighbor_items(self, node: NodeId) -> Iterator[tuple[NodeId, float]]:
        """Iterate over ``(neighbor, edge_weight)`` pairs of *node*."""
        self._require_node(node)
        return iter(self._adjacency[node].items())

    def degree(self, node: NodeId) -> int:
        """Number of incident edges."""
        self._require_node(node)
        return len(self._adjacency[node])

    def weighted_degree(self, node: NodeId) -> float:
        """Sum of incident edge weights (the Laplacian diagonal entry)."""
        self._require_node(node)
        return sum(self._adjacency[node].values())

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def total_node_weight(self) -> float:
        """Sum of all computation weights."""
        return sum(self._node_weights.values())

    def total_edge_weight(self) -> float:
        """Sum of all communication weights (each edge counted once)."""
        return sum(w for _, _, w in self.edges())

    def cut_weight(self, part: Iterable[NodeId]) -> float:
        """Weight of the cut separating *part* from the rest of the graph.

        Implements formula (8): the sum of weights of edges with exactly
        one endpoint inside *part*.
        """
        inside = set(part)
        for node in inside:
            self._require_node(node)
        total = 0.0
        for node in inside:
            for neighbor, weight in self._adjacency[node].items():
                if neighbor not in inside:
                    total += weight
        return total

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        """Return a deep structural copy (metadata dicts are shallow-copied).

        Same order contract and cost as :meth:`subgraph` over every node.
        """
        return self._induced(list(self._adjacency))

    def subgraph(self, nodes: Iterable[NodeId]) -> "WeightedGraph":
        """Return the induced subgraph over *nodes* (unknown ids are ignored).

        Costs one pass over this graph's node list plus the kept nodes'
        adjacency — never the whole edge set.  The result is exactly what
        filtering :meth:`edges` would build: nodes in this graph's
        insertion order, edges added in :meth:`edges` order, so every
        node's neighbour order matches too (label propagation and BFS
        follow it).  ``subgraph`` over all nodes of its own output is
        therefore a fixed point.
        """
        keep = set(nodes)
        return self._induced([node for node in self._adjacency if node in keep])

    def in_subgraph_order(self) -> bool:
        """Whether :meth:`subgraph` over all nodes would reproduce this graph.

        That holds iff every node lists its neighbours that come earlier in
        insertion order first, in that order — the order :meth:`subgraph`
        and :meth:`copy` build — so it holds for every graph they return.
        A graph built by :meth:`add_edge` in another order may list them
        otherwise.  O(V + E), and nothing allocated but a position map.
        """
        position = {node: i for i, node in enumerate(self._adjacency)}
        for i, neighbors in enumerate(self._adjacency.values()):
            last = -1
            later = False
            for v in neighbors:
                p = position[v]
                if p > i:
                    later = True
                elif later or p < last:
                    return False
                else:
                    last = p
        return True

    def _induced(self, kept: list[NodeId]) -> "WeightedGraph":
        """The induced subgraph over *kept* (nodes of this graph, in its order).

        Weights are copied without re-validation: this graph only holds
        weights that passed the public builders, so the derivation trusts
        them and fills the dicts directly.
        """
        source = self._adjacency
        adjacency: dict[NodeId, dict[NodeId, float]] = {node: {} for node in kept}
        pending = set(kept)
        for u in kept:
            pending.discard(u)
            row = adjacency[u]
            for v, w in source[u].items():
                if v in pending:
                    row[v] = w
                    adjacency[v][u] = w
        return WeightedGraph._assemble(
            {node: self._node_weights[node] for node in kept},
            {node: dict(self._node_data[node]) for node in kept},
            adjacency,
        )

    @classmethod
    def _assemble(
        cls,
        node_weights: dict[NodeId, float],
        node_data: dict[NodeId, dict[str, Any]],
        adjacency: dict[NodeId, dict[NodeId, float]],
    ) -> "WeightedGraph":
        """Wrap dicts that already hold this class's invariants, unchecked.

        The one bulk builder for derivations (:meth:`subgraph`,
        :meth:`copy`, the compression merge).  The caller vouches that the
        three dicts share one key order, that node weights are finite and
        ``>= 0``, and that *adjacency* is symmetric with finite positive
        float weights and no self-loops.  The dicts are taken, not copied.
        """
        graph = cls()
        graph._node_weights = node_weights
        graph._node_data = node_data
        graph._adjacency = adjacency
        return graph

    def merge_nodes(self, survivor: NodeId, absorbed: NodeId) -> None:
        """Merge *absorbed* into *survivor* (the compression primitive).

        The survivor's computation weight becomes the sum of both weights;
        edges of the absorbed node are re-attached to the survivor with
        accumulated weights; the edge between the two (if any) disappears —
        it becomes internal traffic that will never be cut.  A sum that
        overflows is rejected before anything changes.
        """
        self._require_node(survivor)
        self._require_node(absorbed)
        if survivor == absorbed:
            raise ValueError("cannot merge a node with itself")
        weight = self._node_weights[survivor] + self._node_weights[absorbed]
        edges = {
            neighbor: self._adjacency[survivor].get(neighbor, 0.0) + w
            for neighbor, w in self._adjacency[absorbed].items()
            if neighbor != survivor
        }
        if weight == _INF or _INF in edges.values():
            raise ValueError(f"merging {absorbed!r} into {survivor!r} overflows a weight")
        self._node_weights[survivor] = weight
        for neighbor, merged in edges.items():
            self._adjacency[survivor][neighbor] = merged
            self._adjacency[neighbor][survivor] = merged
        self.remove_node(absorbed)  # last, so its bump follows the whole merge

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedGraph(nodes={self.node_count}, edges={self.edge_count})"

    def _require_node(self, node: NodeId) -> None:
        if node not in self._adjacency:
            raise KeyError(f"node {node!r} does not exist")
