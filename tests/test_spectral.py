"""Tests for the spectral machinery: eigensolvers, Fiedler, bisection."""

import numpy as np
import pytest

from repro.graphs.generators import (
    path_graph,
    random_connected_graph,
    two_cluster_graph,
)
from repro.graphs.laplacian import laplacian_matrix
from repro.graphs.weighted_graph import WeightedGraph
from repro.spectral.bisection import spectral_bisect
from repro.spectral.eigen import (
    dominant_eigenpair,
    gershgorin_bound,
    smallest_nontrivial_laplacian_eigenpair,
)
from repro.spectral.fiedler import FiedlerSolver
from repro.spectral.lanczos import lanczos_smallest_nontrivial
from repro.spectral.theory import (
    cut_value_quadratic_form,
    indicator_vector,
    rayleigh_quotient,
)


def reference_fiedler(graph) -> tuple[float, np.ndarray]:
    lap = laplacian_matrix(graph)
    values, vectors = np.linalg.eigh(lap)
    return float(values[1]), vectors[:, 1]


class TestPowerIteration:
    def test_dominant_eigenpair_matches_numpy(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8))
        matrix = m @ m.T  # symmetric PSD
        value, vector = dominant_eigenpair(matrix)
        expected = np.linalg.eigvalsh(matrix)[-1]
        assert value == pytest.approx(expected, rel=1e-6)
        assert np.linalg.norm(matrix @ vector - value * vector) < 1e-5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            dominant_eigenpair(np.ones((2, 3)))

    def test_gershgorin_bounds_spectrum(self):
        g = random_connected_graph(10, 18, seed=2)
        lap = laplacian_matrix(g)
        bound = gershgorin_bound(lap)
        assert np.linalg.eigvalsh(lap)[-1] <= bound + 1e-9


class TestFiedlerFromScratch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_power_matches_dense(self, seed):
        g = random_connected_graph(14, 25, seed=seed)
        lap = laplacian_matrix(g)
        expected_value, _ = reference_fiedler(g)
        value, vector = smallest_nontrivial_laplacian_eigenpair(lap)
        assert value == pytest.approx(expected_value, rel=1e-4, abs=1e-6)
        residual = lap @ vector - value * vector
        assert np.linalg.norm(residual) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanczos_matches_dense(self, seed):
        g = random_connected_graph(20, 40, seed=seed)
        lap = laplacian_matrix(g)
        expected_value, _ = reference_fiedler(g)
        value, vector = lanczos_smallest_nontrivial(lap)
        assert value == pytest.approx(expected_value, rel=1e-6, abs=1e-8)
        assert np.linalg.norm(lap @ vector - value * vector) < 1e-6

    def test_vector_orthogonal_to_constant(self):
        g = random_connected_graph(12, 20, seed=5)
        lap = laplacian_matrix(g)
        _, vector = lanczos_smallest_nontrivial(lap)
        assert abs(vector.sum()) < 1e-8

    def test_single_node(self):
        assert smallest_nontrivial_laplacian_eigenpair(np.zeros((1, 1)))[0] == 0.0
        assert lanczos_smallest_nontrivial(np.zeros((1, 1)))[0] == 0.0

    def test_edgeless_graph(self):
        value, vector = smallest_nontrivial_laplacian_eigenpair(np.zeros((4, 4)))
        assert value == 0.0
        assert abs(vector.sum()) < 1e-12

    def test_disconnected_lambda2_zero(self):
        g = WeightedGraph()
        for n in range(4):
            g.add_node(n)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        lap = laplacian_matrix(g)
        value, _ = lanczos_smallest_nontrivial(lap)
        assert value == pytest.approx(0.0, abs=1e-9)


class TestFiedlerSolver:
    @pytest.mark.parametrize("method", ["dense", "sparse", "power", "lanczos"])
    def test_all_backends_agree(self, method):
        g = random_connected_graph(18, 35, seed=4)
        expected_value, _ = reference_fiedler(g)
        result = FiedlerSolver(method=method).solve(g)
        assert result.value == pytest.approx(expected_value, rel=1e-4, abs=1e-6)

    def test_auto_switches_by_size(self):
        solver = FiedlerSolver(dense_cutoff=5)
        small = solver.solve(path_graph(4))
        large = solver.solve(path_graph(10))
        assert small.method == "dense"
        assert large.method == "sparse"

    def test_known_path_value(self):
        # lambda_2 of the unweighted path P_n is 2(1 - cos(pi/n)).
        n = 8
        result = FiedlerSolver(method="dense").solve(path_graph(n))
        expected = 2.0 * (1.0 - np.cos(np.pi / n))
        assert result.value == pytest.approx(expected, rel=1e-9)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            FiedlerSolver().solve(WeightedGraph())

    def test_single_node_trivial(self):
        g = WeightedGraph()
        g.add_node("x")
        result = FiedlerSolver().solve(g)
        assert result.value == 0.0
        assert result.method == "trivial"

    def test_entry_lookup(self):
        result = FiedlerSolver().solve(path_graph(4))
        assert result.entry(0) == pytest.approx(float(result.vector[0]))

    def test_matches_networkx_algebraic_connectivity(self):
        networkx = pytest.importorskip("networkx")
        g = random_connected_graph(16, 30, seed=7)
        nxg = networkx.Graph()
        for u, v, w in g.edges():
            nxg.add_edge(u, v, weight=w)
        expected = networkx.algebraic_connectivity(nxg, weight="weight")
        result = FiedlerSolver(method="dense").solve(g)
        assert result.value == pytest.approx(expected, rel=1e-6)


class TestBisection:
    def test_two_clusters_separated(self):
        g = two_cluster_graph(5, intra_weight=10.0, bridge_weight=0.5)
        result = spectral_bisect(g)
        sides = {frozenset(result.part_one), frozenset(result.part_two)}
        assert sides == {frozenset(range(5)), frozenset(range(5, 10))}
        assert result.cut_value == pytest.approx(0.5)

    def test_cut_value_consistent_with_graph(self):
        g = random_connected_graph(15, 30, seed=8)
        result = spectral_bisect(g)
        assert result.cut_value == pytest.approx(g.cut_weight(result.part_one))

    def test_parts_partition_nodes(self):
        g = random_connected_graph(13, 22, seed=9)
        result = spectral_bisect(g)
        assert result.part_one | result.part_two == set(g.nodes())
        assert not result.part_one & result.part_two
        assert result.part_one and result.part_two

    def test_single_node_graph(self):
        g = WeightedGraph()
        g.add_node("x")
        result = spectral_bisect(g)
        assert result.part_one == {"x"}
        assert result.part_two == set()
        assert result.cut_value == 0.0

    def test_two_node_graph(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", weight=3.0)
        result = spectral_bisect(g)
        assert {len(result.part_one), len(result.part_two)} == {1}
        assert result.cut_value == 3.0

    def test_balanced_split_sizes(self):
        g = random_connected_graph(20, 40, seed=10)
        result = spectral_bisect(g, balanced=True)
        assert abs(len(result.part_one) - len(result.part_two)) <= 2

    def test_theorem1_lambda2_leq_cut(self):
        """lambda_2 lower-bounds the scaled cut (Theorem 1's direction)."""
        g = random_connected_graph(12, 24, seed=11)
        lap = laplacian_matrix(g)
        lambda2 = float(np.linalg.eigvalsh(lap)[1])
        result = spectral_bisect(g)
        n = g.node_count
        k = len(result.part_one)
        # Normalised-cut form of the bound: cut >= lambda2 * k*(n-k)/n.
        assert result.cut_value >= lambda2 * k * (n - k) / n - 1e-9


class TestTheory:
    @pytest.mark.parametrize("d1,d2", [(1.0, -1.0), (2.0, 0.5), (3.0, -2.0)])
    def test_theorem2_identity(self, d1, d2):
        g = random_connected_graph(10, 20, seed=12)
        part = {0, 3, 5, 7}
        direct = g.cut_weight(part)
        quadratic = cut_value_quadratic_form(g, part, d1, d2)
        assert quadratic == pytest.approx(direct, rel=1e-9)

    def test_indicator_requires_distinct_values(self):
        with pytest.raises(ValueError):
            indicator_vector(["a"], {"a"}, 1.0, 1.0)

    def test_rayleigh_quotient_bounds(self):
        g = random_connected_graph(9, 15, seed=13)
        lap = laplacian_matrix(g)
        values = np.linalg.eigvalsh(lap)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(9)
            r = rayleigh_quotient(lap, x)
            assert values[0] - 1e-9 <= r <= values[-1] + 1e-9

    def test_rayleigh_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.eye(3), np.zeros(3))
