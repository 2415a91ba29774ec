"""Tests for compression quality metrics and the library's runnable
docstring examples."""

import doctest

import pytest

from repro.compression import GraphCompressor
from repro.compression.quality import (
    compression_quality,
    internalized_traffic_fraction,
    weighted_modularity,
)
from repro.graphs.generators import path_graph, two_cluster_graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.workloads.netgen import NetgenConfig, netgen_graph


class TestCompressionQuality:
    def test_perfect_clustering_internalises_almost_everything(self):
        g = two_cluster_graph(5, intra_weight=10.0, bridge_weight=1.0)
        clusters = [set(range(5)), set(range(5, 10))]
        fraction = internalized_traffic_fraction(g, clusters)
        bridge = 1.0
        total = g.total_edge_weight()
        assert fraction == pytest.approx((total - bridge) / total)

    def test_singleton_clustering_internalises_nothing(self):
        g = path_graph(6)
        clusters = [{n} for n in g.nodes()]
        assert internalized_traffic_fraction(g, clusters) == 0.0

    def test_overlapping_clusters_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="two clusters"):
            internalized_traffic_fraction(g, [{0, 1}, {1, 2}])

    def test_modularity_signs(self):
        g = two_cluster_graph(5, intra_weight=10.0, bridge_weight=1.0)
        good = weighted_modularity(g, [set(range(5)), set(range(5, 10))])
        trivial = weighted_modularity(g, [set(g.nodes())])
        assert good > 0.3
        assert trivial == pytest.approx(0.0, abs=1e-9)
        assert good > trivial

    def test_edgeless_graph_scores_zero(self):
        g = WeightedGraph()
        g.add_node("a")
        assert weighted_modularity(g, [{"a"}]) == 0.0
        assert internalized_traffic_fraction(g, [{"a"}]) == 0.0

    def test_lpa_compression_quality_on_netgen(self):
        """Algorithm 1 must internalise the heavy intra-cluster traffic
        on NETGEN-style clustered workloads."""
        g = netgen_graph(NetgenConfig(n_nodes=200, n_edges=900, seed=3))
        compressed = GraphCompressor().compress(g).compressed
        quality = compression_quality(g, compressed)
        assert quality["internalized_traffic"] > 0.6
        assert quality["modularity"] > 0.2
        assert quality["node_reduction"] > 0.5


class TestDoctests:
    """The examples in key docstrings must actually run."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.utils.rng",
            "repro.utils.timer",
            "repro.graphs.weighted_graph",
            "repro.distributed.cluster",
            "repro.simulation.events",
            "repro.compression.compressor",
            "repro.spectral.fiedler",
        ],
    )
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        failures, attempted = doctest.testmod(
            module, verbose=False, raise_on_error=False
        ).failed, doctest.testmod(module, verbose=False).attempted
        assert attempted > 0, f"{module_name} advertises no runnable examples"
        assert failures == 0
