"""Unit tests for the core weighted graph structure."""

import pytest

from repro.graphs.weighted_graph import WeightedGraph


class TestNodes:
    def test_add_and_query_node(self):
        g = WeightedGraph()
        g.add_node("a", weight=3.5, kind="compute")
        assert g.has_node("a")
        assert g.node_weight("a") == 3.5
        assert g.node_data("a") == {"kind": "compute"}
        assert g.node_count == 1

    def test_duplicate_node_rejected(self):
        g = WeightedGraph()
        g.add_node("a")
        with pytest.raises(ValueError, match="already exists"):
            g.add_node("a")

    def test_negative_node_weight_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError, match=">= 0"):
            g.add_node("a", weight=-1.0)

    def test_remove_node_drops_incident_edges(self):
        g = WeightedGraph()
        for n in "abc":
            g.add_node(n)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert not g.has_node("b")
        assert g.edge_count == 0
        assert not g.has_edge("a", "b")

    def test_remove_missing_node_raises(self):
        g = WeightedGraph()
        with pytest.raises(KeyError):
            g.remove_node("ghost")

    def test_set_node_weight(self):
        g = WeightedGraph()
        g.add_node("a", weight=1.0)
        g.set_node_weight("a", 9.0)
        assert g.node_weight("a") == 9.0

    def test_node_insertion_order_preserved(self):
        g = WeightedGraph()
        for n in ("z", "a", "m"):
            g.add_node(n)
        assert g.node_list() == ["z", "a", "m"]


class TestEdges:
    def test_add_edge_symmetric(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", weight=4.0)
        assert g.edge_weight("a", "b") == 4.0
        assert g.edge_weight("b", "a") == 4.0
        assert g.edge_count == 1

    def test_parallel_edge_accumulates(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", weight=4.0)
        g.add_edge("a", "b", weight=1.5)
        assert g.edge_weight("a", "b") == 5.5
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        g = WeightedGraph()
        g.add_node("a")
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge("a", "a")

    def test_non_positive_edge_weight_rejected(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        with pytest.raises(ValueError):
            g.add_edge("a", "b", weight=0.0)

    def test_edge_to_missing_node_raises(self):
        g = WeightedGraph()
        g.add_node("a")
        with pytest.raises(KeyError):
            g.add_edge("a", "ghost")

    def test_remove_edge(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.has_node("a") and g.has_node("b")

    def test_set_edge_weight_overwrites(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", weight=2.0)
        g.set_edge_weight("a", "b", 7.0)
        assert g.edge_weight("b", "a") == 7.0

    def test_edges_yielded_once(self, triangle):
        edges = triangle.edge_list()
        assert len(edges) == 3
        pairs = {frozenset((u, v)) for u, v, _ in edges}
        assert len(pairs) == 3


class TestAggregates:
    def test_total_node_weight(self, triangle):
        assert triangle.total_node_weight() == 6.0

    def test_total_edge_weight(self, triangle):
        assert triangle.total_edge_weight() == 6.0

    def test_weighted_degree(self, triangle):
        assert triangle.weighted_degree("a") == 4.0
        assert triangle.weighted_degree("b") == 3.0
        assert triangle.weighted_degree("c") == 5.0

    def test_cut_weight_formula8(self, triangle):
        # Cut {a} vs {b, c}: edges a-b (1) and a-c (3).
        assert triangle.cut_weight({"a"}) == 4.0
        # Complement gives the same cut.
        assert triangle.cut_weight({"b", "c"}) == 4.0

    def test_cut_weight_empty_and_full(self, triangle):
        assert triangle.cut_weight(set()) == 0.0
        assert triangle.cut_weight({"a", "b", "c"}) == 0.0


class TestDerivation:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_node("a")
        assert triangle.has_node("a")
        assert triangle.edge_count == 3

    def test_subgraph_induced(self, triangle):
        sub = triangle.subgraph({"a", "b"})
        assert sub.node_count == 2
        assert sub.edge_count == 1
        assert sub.edge_weight("a", "b") == 1.0

    def test_merge_nodes_sums_weights(self, triangle):
        triangle.merge_nodes("a", "b")
        assert triangle.node_weight("a") == 3.0
        assert not triangle.has_node("b")
        # Edges a-c (3) and b-c (2) accumulate into a-c (5).
        assert triangle.edge_weight("a", "c") == 5.0

    def test_merge_preserves_totals(self, clusters):
        node_total = clusters.total_node_weight()
        internal = clusters.edge_weight(0, 1)
        external = clusters.total_edge_weight() - internal
        clusters.merge_nodes(0, 1)
        assert clusters.total_node_weight() == pytest.approx(node_total)
        assert clusters.total_edge_weight() == pytest.approx(external)

    def test_merge_self_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.merge_nodes("a", "a")

    def test_from_edges_constructor(self):
        g = WeightedGraph.from_edges(
            [("x", "y", 2.0), ("y", "z", 3.0)], node_weights={"x": 5.0}
        )
        assert g.node_count == 3
        assert g.node_weight("x") == 5.0
        assert g.node_weight("y") == 1.0
        assert g.edge_weight("y", "z") == 3.0


class TestDunder:
    def test_len_contains_iter(self, triangle):
        assert len(triangle) == 3
        assert "a" in triangle
        assert "ghost" not in triangle
        assert sorted(triangle) == ["a", "b", "c"]


MUTATIONS = {
    "add_node": lambda g: g.add_node("d", weight=4.0),
    "remove_node": lambda g: g.remove_node("c"),
    "set_node_weight": lambda g: g.set_node_weight("a", 5.0),
    "add_edge": lambda g: g.add_edge("a", "b", weight=1.0),
    "set_edge_weight": lambda g: g.set_edge_weight("a", "b", 4.0),
    "remove_edge": lambda g: g.remove_edge("a", "b"),
    "merge_nodes": lambda g: g.merge_nodes("a", "b"),
}


class TestVersion:
    """The mutation counter that content memos (the call graph's
    fingerprint) are validated against."""

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutator_bumps_the_version(self, triangle, name):
        before = triangle.version
        MUTATIONS[name](triangle)
        assert triangle.version > before

    def test_queries_and_rejected_mutations_leave_it(self, triangle):
        before = triangle.version
        triangle.edge_list()
        triangle.subgraph({"a", "b"})
        triangle.cut_weight({"a"})
        with pytest.raises(ValueError):
            triangle.add_edge("a", "a")
        with pytest.raises(KeyError):
            triangle.set_edge_weight("a", "ghost", 1.0)
        with pytest.raises(ValueError):
            triangle.set_node_weight("a", -1.0)
        assert triangle.version == before

    @pytest.mark.parametrize(
        "derive",
        [
            lambda g: g.copy(),
            lambda g: g.subgraph({"a", "c"}),
            lambda g: WeightedGraph._assemble(
                dict(g._node_weights),
                {node: dict(data) for node, data in g._node_data.items()},
                {node: dict(row) for node, row in g._adjacency.items()},
            ),
        ],
        ids=["copy", "subgraph", "_assemble"],
    )
    def test_derived_graphs_start_fresh(self, triangle, derive):
        source_version = triangle.version
        assert source_version > 0
        derived = derive(triangle)
        assert derived.version == 0
        derived.set_node_weight("a", 9.0)
        assert derived.version == 1
        assert triangle.version == source_version
