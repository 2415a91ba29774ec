"""Tests for traversal orders and connected-component utilities."""

import pytest

from repro.graphs.components import (
    component_subgraphs,
    connected_components,
    is_connected,
    largest_component,
)
from repro.graphs.generators import grid_graph, path_graph, star_graph
from repro.graphs.traversal import (
    bfs_order,
    bfs_tree,
    eccentricity,
    farthest_node,
    hop_distances,
)
from repro.graphs.weighted_graph import WeightedGraph


def two_component_graph() -> WeightedGraph:
    g = WeightedGraph()
    for n in range(6):
        g.add_node(n)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    return g  # node 5 is isolated in no edge set; 3-4 pair; 0-1-2 chain


class TestTraversal:
    def test_bfs_order_on_path(self, chain):
        assert bfs_order(chain, 0) == [0, 1, 2, 3, 4, 5]
        assert bfs_order(chain, 3) == [3, 2, 4, 1, 5, 0]

    def test_bfs_missing_start_raises(self, chain):
        with pytest.raises(KeyError):
            bfs_order(chain, 42)

    def test_bfs_tree_parents(self, chain):
        parents = bfs_tree(chain, 2)
        assert parents[2] is None
        assert parents[1] == 2
        assert parents[0] == 1
        assert parents[5] == 4

    def test_hop_distances(self, chain):
        distances = hop_distances(chain, 0)
        assert distances == {i: i for i in range(6)}

    def test_eccentricity_and_farthest(self, chain):
        assert eccentricity(chain, 0) == 5
        assert eccentricity(chain, 3) == 3
        assert farthest_node(chain, 0) == 5

    def test_traversal_covers_only_reachable(self):
        g = two_component_graph()
        assert set(bfs_order(g, 0)) == {0, 1, 2}
        assert set(bfs_order(g, 3)) == {3, 4}


class TestComponents:
    def test_connected_components(self):
        g = two_component_graph()
        components = connected_components(g)
        assert [sorted(c) for c in components] == [[0, 1, 2], [3, 4], [5]]

    def test_component_subgraphs_preserve_edges(self):
        g = two_component_graph()
        subs = component_subgraphs(g)
        assert [s.node_count for s in subs] == [3, 2, 1]
        assert subs[0].has_edge(0, 1)
        assert subs[1].has_edge(3, 4)

    def test_is_connected(self, chain):
        assert is_connected(chain)
        assert not is_connected(two_component_graph())
        assert is_connected(WeightedGraph())  # empty graph is connected

    def test_largest_component(self):
        assert largest_component(two_component_graph()) == {0, 1, 2}
        assert largest_component(WeightedGraph()) == set()

    def test_grid_is_connected(self):
        assert is_connected(grid_graph(3, 4))

    def test_single_node_component(self):
        g = WeightedGraph()
        g.add_node("only")
        assert connected_components(g) == [{"only"}]
        assert is_connected(g)


class TestGenerators:
    def test_path_graph_shape(self):
        p = path_graph(5, node_weight=2.0, edge_weight=3.0)
        assert p.node_count == 5
        assert p.edge_count == 4
        assert p.node_weight(2) == 2.0
        assert p.edge_weight(1, 2) == 3.0

    def test_grid_graph_shape(self):
        g = grid_graph(3, 4)
        assert g.node_count == 12
        assert g.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            star_graph(0)
        with pytest.raises(ValueError):
            grid_graph(0, 3)
