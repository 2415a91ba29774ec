"""Tests for graph metrics, conductance and the Cheeger machinery."""

import pytest
from hypothesis import given, settings

from repro.graphs.generators import (
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    two_cluster_graph,
)
from repro.graphs.metrics import (
    average_clustering,
    average_degree,
    clustering_coefficient,
    conductance,
    degree_histogram,
    density,
    edge_weight_summary,
    node_weight_summary,
    volume,
    WeightSummary,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.spectral.cheeger import cheeger_bounds, normalized_lambda2, sweep_cut
from tests.test_properties_graphs import weighted_graphs


class TestMetrics:
    def test_density(self):
        assert density(path_graph(4)) == pytest.approx(3 / 6)
        complete = random_connected_graph(5, 10, seed=1)
        assert density(complete) == pytest.approx(1.0)
        assert density(WeightedGraph()) == 0.0

    def test_average_degree(self):
        assert average_degree(path_graph(4)) == pytest.approx(1.5)
        assert average_degree(star_graph(5)) == pytest.approx(10 / 6)

    def test_degree_histogram(self):
        assert degree_histogram(star_graph(4)) == {4: 1, 1: 4}
        assert degree_histogram(path_graph(3)) == {1: 2, 2: 1}

    def test_weight_summary(self):
        summary = WeightSummary.of([3.0, 1.0, 2.0, 4.0])
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == 2.5
        assert summary.median == 2.5
        empty = WeightSummary.of([])
        assert empty.count == 0 and empty.total == 0.0

    def test_edge_and_node_summaries(self, triangle):
        edges = edge_weight_summary(triangle)
        assert edges.count == 3
        assert edges.total == 6.0
        nodes = node_weight_summary(triangle)
        assert nodes.maximum == 3.0

    def test_clustering_coefficient(self, triangle):
        assert clustering_coefficient(triangle, "a") == 1.0
        assert clustering_coefficient(path_graph(3), 1) == 0.0
        assert average_clustering(triangle) == 1.0
        # Grid has no triangles.
        assert average_clustering(grid_graph(3, 3)) == 0.0

    def test_volume_and_conductance(self):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.0)
        left = set(range(4))
        # vol(left) = 4 nodes * 3 intra edges * 10 each... computed directly:
        assert volume(g, left) == pytest.approx(sum(g.weighted_degree(n) for n in left))
        phi = conductance(g, left)
        assert phi == pytest.approx(1.0 / volume(g, left))

    def test_conductance_needs_proper_bipartition(self, triangle):
        with pytest.raises(ValueError):
            conductance(triangle, set())
        with pytest.raises(ValueError):
            conductance(triangle, {"a", "b", "c"})


class TestCheeger:
    def test_normalized_lambda2_range(self):
        for seed in range(3):
            g = random_connected_graph(12, 22, seed=seed)
            lam = normalized_lambda2(g)
            assert 0.0 <= lam <= 2.0 + 1e-9

    def test_sweep_cut_finds_cluster_boundary(self):
        g = two_cluster_graph(5, intra_weight=10.0, bridge_weight=0.5)
        phi, side = sweep_cut(g)
        assert side in (set(range(5)), set(range(5, 10)))
        assert phi == pytest.approx(conductance(g, side))

    def test_sweep_cut_small_graph_rejected(self):
        g = WeightedGraph()
        g.add_node("only")
        with pytest.raises(ValueError):
            sweep_cut(g)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cheeger_inequality_random_graphs(self, seed):
        g = random_connected_graph(14, 28, seed=seed)
        lower, phi, upper = cheeger_bounds(g)
        assert lower - 1e-9 <= phi <= upper + 1e-9

    @given(weighted_graphs(min_nodes=3))
    @settings(max_examples=30, deadline=None)
    def test_cheeger_inequality_property(self, graph):
        from repro.graphs.components import is_connected

        if not is_connected(graph):
            return
        lower, phi, upper = cheeger_bounds(graph)
        assert phi <= upper + 1e-7
        assert phi >= lower - 1e-7

    def test_sweep_conductance_beats_or_ties_sign_split_sometimes(self):
        """The sweep optimises conductance directly, so it can never be
        worse than the sign split's prefix at the zero threshold."""
        g = random_connected_graph(20, 45, seed=5)
        phi_sweep, _ = sweep_cut(g)
        from repro.spectral.bisection import spectral_bisect

        sign = spectral_bisect(g)
        phi_sign = conductance(g, sign.part_one)
        assert phi_sweep <= phi_sign + 1e-9

    def test_path_cheeger_values(self):
        # For long paths lambda_2 -> 0 and the sweep finds the middle cut.
        g = path_graph(20)
        lower, phi, upper = cheeger_bounds(g)
        assert phi < 0.2
        assert lower <= phi <= upper
