"""Tests for Laplacian builders and graph serialization."""

import numpy as np
import pytest

from repro.graphs.generators import random_connected_graph
from repro.graphs.io import (
    graph_from_dict,
    graph_from_edge_list,
    graph_to_dict,
    load_graph_json,
    save_graph_json,
)
from repro.graphs.laplacian import (
    adjacency_matrix,
    degree_vector,
    laplacian_matrix,
    node_index,
    normalized_laplacian_matrix,
    sparse_laplacian,
)
from repro.graphs.validation import check_graph_invariants
from repro.graphs.weighted_graph import WeightedGraph


class TestLaplacian:
    def test_adjacency_symmetric(self, triangle):
        a = adjacency_matrix(triangle)
        assert np.allclose(a, a.T)
        assert a[0, 1] == 1.0  # a-b
        assert a[0, 2] == 3.0  # a-c

    def test_laplacian_rows_sum_to_zero(self, triangle):
        lap = laplacian_matrix(triangle)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)

    def test_laplacian_diagonal_is_weighted_degree(self, triangle):
        lap = laplacian_matrix(triangle)
        degrees = degree_vector(triangle)
        assert np.allclose(np.diag(lap), degrees)
        assert degrees.tolist() == [4.0, 3.0, 5.0]

    def test_laplacian_psd(self):
        g = random_connected_graph(12, 20, seed=3)
        lap = laplacian_matrix(g)
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() > -1e-9

    def test_smallest_eigenvalue_zero_constant_vector(self, clusters):
        lap = laplacian_matrix(clusters)
        values, vectors = np.linalg.eigh(lap)
        assert values[0] == pytest.approx(0.0, abs=1e-9)
        first = vectors[:, 0]
        assert np.allclose(first, first[0])

    def test_sparse_matches_dense(self):
        g = random_connected_graph(15, 30, seed=5)
        dense = laplacian_matrix(g)
        sparse = sparse_laplacian(g).toarray()
        assert np.allclose(dense, sparse)

    def test_custom_order_respected(self, triangle):
        order = ["c", "a", "b"]
        lap = laplacian_matrix(triangle, order)
        assert lap[0, 0] == 5.0  # c's weighted degree

    def test_node_index_rejects_incomplete_order(self, triangle):
        with pytest.raises(ValueError):
            node_index(triangle, ["a", "b"])
        with pytest.raises(ValueError):
            node_index(triangle, ["a", "a", "b"])

    def test_normalized_laplacian_spectrum_bounds(self):
        g = random_connected_graph(10, 20, seed=9)
        norm = normalized_laplacian_matrix(g)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.min() > -1e-9
        assert eigenvalues.max() < 2.0 + 1e-9

    def test_normalized_laplacian_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        g = random_connected_graph(8, 14, seed=11)
        nxg = networkx.Graph()
        for u, v, w in g.edges():
            nxg.add_edge(u, v, weight=w)
        ours = normalized_laplacian_matrix(g, order=sorted(g.nodes()))
        theirs = networkx.normalized_laplacian_matrix(
            nxg, nodelist=sorted(g.nodes())
        ).toarray()
        assert np.allclose(ours, theirs)


class TestSerialization:
    def test_dict_roundtrip(self, triangle):
        rebuilt = graph_from_dict(graph_to_dict(triangle))
        assert rebuilt.node_count == 3
        assert rebuilt.edge_weight("a", "c") == 3.0
        assert rebuilt.node_weight("b") == 2.0
        check_graph_invariants(rebuilt)

    def test_json_roundtrip(self, tmp_path, clusters):
        path = tmp_path / "graph.json"
        save_graph_json(clusters, path)
        rebuilt = load_graph_json(path)
        assert rebuilt.node_count == clusters.node_count
        assert rebuilt.edge_count == clusters.edge_count
        assert rebuilt.total_edge_weight() == pytest.approx(
            clusters.total_edge_weight()
        )

    def test_edge_list_parser(self):
        lines = ["# comment", "", "a b 2.5", "b c", "c d 1"]
        g = graph_from_edge_list(lines)
        assert g.node_count == 4
        assert g.edge_weight("a", "b") == 2.5
        assert g.edge_weight("b", "c") == 1.0

    def test_edge_list_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            graph_from_edge_list(["a b c d"])

    def test_metadata_roundtrip(self):
        g = WeightedGraph()
        g.add_node("f1", weight=2.0, component="ui", offloadable=False)
        payload = graph_to_dict(g)
        rebuilt = graph_from_dict(payload)
        assert rebuilt.node_data("f1") == {"component": "ui", "offloadable": False}


class TestValidation:
    def test_valid_graph_passes(self, clusters):
        check_graph_invariants(clusters)

    def test_random_generator_output_valid(self):
        for seed in range(3):
            check_graph_invariants(random_connected_graph(20, 40, seed=seed))

    def test_generator_counts_exact(self):
        g = random_connected_graph(20, 40, seed=1)
        assert g.node_count == 20
        assert g.edge_count == 40

    def test_generator_dense_regime(self):
        g = random_connected_graph(8, 28, seed=1)  # complete graph
        assert g.edge_count == 28

    def test_generator_bad_edge_count(self):
        with pytest.raises(ValueError):
            random_connected_graph(10, 5, seed=0)  # below n-1
        with pytest.raises(ValueError):
            random_connected_graph(4, 10, seed=0)  # above n(n-1)/2

    def test_path_connectivity_from_generator(self):
        from repro.graphs.components import is_connected

        for seed in range(5):
            assert is_connected(random_connected_graph(30, 35, seed=seed))
