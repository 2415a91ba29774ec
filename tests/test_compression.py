"""Tests for Algorithm 1: label rules, propagation, merge, compressor."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compression.compressor import CompressionConfig, GraphCompressor
from repro.compression.labels import (
    AbsoluteThreshold,
    MeanScaledThreshold,
    QuantileThreshold,
)
from repro.compression.merge import merge_labeled_graph
from repro.compression.propagation import LabelPropagation, select_starter
from repro.compression.termination import TerminationCriteria
from repro.graphs.generators import two_cluster_graph
from repro.graphs.weighted_graph import WeightedGraph


class TestThresholdRules:
    def test_absolute(self, triangle):
        rule = AbsoluteThreshold(2.0)
        assert rule.threshold(triangle) == 2.0
        assert rule.is_strong(triangle, 2.5)
        assert not rule.is_strong(triangle, 2.0)  # strictly greater

    def test_absolute_negative_rejected(self):
        with pytest.raises(ValueError):
            AbsoluteThreshold(-1.0)

    def test_mean_scaled(self, triangle):
        # Edge weights 1, 2, 3 -> mean 2.
        assert MeanScaledThreshold(1.0).threshold(triangle) == pytest.approx(2.0)
        assert MeanScaledThreshold(0.5).threshold(triangle) == pytest.approx(1.0)

    def test_quantile(self, triangle):
        assert QuantileThreshold(0.0).threshold(triangle) == 1.0
        assert QuantileThreshold(1.0).threshold(triangle) == 3.0

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            QuantileThreshold(1.5)

    def test_edgeless_graph_threshold_zero(self):
        g = WeightedGraph()
        g.add_node("a")
        assert QuantileThreshold().threshold(g) == 0.0
        assert MeanScaledThreshold().threshold(g) == 0.0


class TestTermination:
    def test_alpha_threshold_stops(self):
        criteria = TerminationCriteria(alpha_threshold=0.1, max_rounds=100)
        assert criteria.should_stop(updates=1, total_nodes=20, rounds_done=1)
        assert not criteria.should_stop(updates=5, total_nodes=20, rounds_done=1)

    def test_max_rounds_stops(self):
        criteria = TerminationCriteria(alpha_threshold=0.0, max_rounds=3)
        assert criteria.should_stop(updates=10, total_nodes=20, rounds_done=3)

    def test_update_rate_formula7(self):
        criteria = TerminationCriteria()
        assert criteria.update_rate(5, 20) == 0.25
        assert criteria.update_rate(0, 0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TerminationCriteria(alpha_threshold=1.5)
        with pytest.raises(ValueError):
            TerminationCriteria(max_rounds=0)


class TestPropagation:
    def test_starter_is_max_degree(self, clusters):
        starter = select_starter(clusters)
        assert clusters.degree(starter) == max(
            clusters.degree(n) for n in clusters.nodes()
        )

    def test_starter_tiebreak_weighted_degree(self):
        g = WeightedGraph()
        for n in "abcd":
            g.add_node(n)
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("c", "d", weight=9.0)
        # All degrees equal 1; c and d have the higher weighted degree and
        # c comes first in insertion order.
        assert select_starter(g) == "c"

    def test_strong_edges_share_label(self, clusters):
        propagation = LabelPropagation(AbsoluteThreshold(5.0))
        report = propagation.run(clusters)
        labels = report.labels
        # Intra-cluster edges (10.0) are strong: each cluster one label.
        assert len({labels[n] for n in range(4)}) == 1
        assert len({labels[n] for n in range(4, 8)}) == 1
        # Bridge (1.0) is weak: clusters differ.
        assert labels[0] != labels[4]

    def test_weak_graph_all_distinct(self, chain):
        propagation = LabelPropagation(AbsoluteThreshold(10.0))
        report = propagation.run(chain)
        assert report.cluster_count == chain.node_count

    def test_zero_threshold_single_label_per_component(self, clusters):
        propagation = LabelPropagation(AbsoluteThreshold(0.0))
        report = propagation.run(clusters)
        assert report.cluster_count == 1

    def test_every_node_labeled(self, clusters):
        report = LabelPropagation(QuantileThreshold()).run(clusters)
        assert set(report.labels) == set(clusters.nodes())

    def test_disconnected_graph_handled(self):
        g = WeightedGraph()
        for n in range(4):
            g.add_node(n)
        g.add_edge(0, 1, weight=5.0)
        # Nodes 2, 3 isolated.
        report = LabelPropagation(AbsoluteThreshold(1.0)).run(g)
        assert set(report.labels) == {0, 1, 2, 3}
        assert report.labels[2] != report.labels[3]

    def test_empty_graph(self):
        report = LabelPropagation(QuantileThreshold()).run(WeightedGraph())
        assert report.labels == {}
        assert report.rounds == 0

    def test_beta_t_caps_rounds(self, clusters):
        criteria = TerminationCriteria(alpha_threshold=0.0, max_rounds=1)
        report = LabelPropagation(AbsoluteThreshold(5.0), criteria).run(clusters)
        assert report.rounds == 1

    def test_propagation_converges(self, clusters):
        report = LabelPropagation(AbsoluteThreshold(5.0)).run(clusters)
        # Last round must have performed no updates (fixed point).
        assert report.updates_per_round[-1] == 0


class TestMerge:
    def test_merge_fuses_same_label_neighbors(self, clusters):
        labels = {n: 0 if n < 4 else 1 for n in clusters.nodes()}
        compressed = merge_labeled_graph(clusters, labels)
        assert compressed.graph.node_count == 2
        assert compressed.graph.edge_count == 1
        # Bridge weight survives as the inter-super-node edge.
        assert compressed.graph.edge_weight(0, 1) == 1.0

    def test_merge_requires_connectivity(self, chain):
        # Same label but ends of the chain are not adjacent: only
        # connected runs merge.
        labels = {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 0}
        compressed = merge_labeled_graph(chain, labels)
        # Runs: [0], [1], [2,3], [4], [5] -> 5 super-nodes.
        assert compressed.graph.node_count == 5

    def test_merged_weight_is_sum(self, clusters):
        labels = {n: 0 if n < 4 else 1 for n in clusters.nodes()}
        compressed = merge_labeled_graph(clusters, labels)
        total = clusters.total_node_weight()
        assert compressed.graph.total_node_weight() == pytest.approx(total)

    def test_expand_roundtrip(self, clusters):
        labels = {n: 0 if n < 4 else 1 for n in clusters.nodes()}
        compressed = merge_labeled_graph(clusters, labels)
        assert compressed.expand([0]) == {0, 1, 2, 3}
        assert compressed.expand([0, 1]) == set(range(8))
        assert compressed.super_node_of(5) == 1

    def test_unlabeled_node_rejected(self, chain):
        with pytest.raises(ValueError, match="no label"):
            merge_labeled_graph(chain, {0: 0})

    def test_reduction_metrics(self, clusters):
        labels = {n: 0 if n < 4 else 1 for n in clusters.nodes()}
        compressed = merge_labeled_graph(clusters, labels)
        assert compressed.node_reduction == pytest.approx(1 - 2 / 8)
        assert compressed.original_edge_count == 13

    def test_super_node_and_super_edge_overflow_rejected(self):
        # Each weight is valid; their sum is not a finite float.
        g = WeightedGraph()
        g.add_node("a", weight=1e308)
        g.add_node("b", weight=1e308)
        g.add_edge("a", "b", weight=1.0)
        with pytest.raises(ValueError, match="overflows"):
            merge_labeled_graph(g, {"a": 0, "b": 0})
        g.set_node_weight("a", 1.0)
        g.add_node("c", weight=1.0)
        g.add_edge("a", "c", weight=1e308)
        g.add_edge("b", "c", weight=1e308)
        with pytest.raises(ValueError, match="overflows"):
            merge_labeled_graph(g, {"a": 0, "b": 0, "c": 1})

    def test_super_node_weights_independent_of_hash_seed(self):
        """Super-node weights are float sums over string-named members;
        they must come out bit-identical under any ``PYTHONHASHSEED``."""
        root = Path(__file__).resolve().parents[1]
        outputs = []
        for seed in ("1", "2"):
            completed = subprocess.run(
                [sys.executable, "-c", _MERGE_WEIGHTS_PROBE],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root / "src")},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            outputs.append(json.loads(completed.stdout.splitlines()[-1]))
        assert outputs[0] == outputs[1]


# Compresses synthesized apps and prints every super-node weight as
# float.hex, so two interpreters compare bit for bit.
_MERGE_WEIGHTS_PROBE = """
import json
from repro.compression.compressor import GraphCompressor
from repro.workloads.applications import synthesize_application
compressor = GraphCompressor()
weights = []
for seed in range(30):
    app = synthesize_application(f"app{seed}", n_functions=60, seed=seed)
    graph = compressor.compress(app.offloadable_subgraph()).compressed.graph
    weights.append([graph.node_weight(node).hex() for node in graph.nodes()])
print(json.dumps(weights))
"""


class TestCompressor:
    def test_two_cluster_compresses_to_two_nodes(self):
        graph = two_cluster_graph(5, intra_weight=10.0, bridge_weight=1.0)
        result = GraphCompressor(
            CompressionConfig(threshold_rule=AbsoluteThreshold(5.0))
        ).compress(graph)
        assert result.compressed.graph.node_count == 2

    def test_conserves_node_weight(self, clusters):
        result = GraphCompressor().compress(clusters)
        assert result.compressed.graph.total_node_weight() == pytest.approx(
            clusters.total_node_weight()
        )

    def test_never_merges_across_components(self):
        g = WeightedGraph()
        for n in range(4):
            g.add_node(n)
        g.add_edge(0, 1, weight=10.0)
        g.add_edge(2, 3, weight=10.0)
        result = GraphCompressor(
            CompressionConfig(threshold_rule=AbsoluteThreshold(1.0))
        ).compress(g)
        compressed = result.compressed
        assert compressed.graph.node_count == 2
        assert compressed.expand([compressed.super_node_of(0)]) == {0, 1}

    def test_compression_keeps_cut_reachable(self):
        """Compression must not change the weight of the cluster cut."""
        graph = two_cluster_graph(6, intra_weight=20.0, bridge_weight=2.0)
        result = GraphCompressor(
            CompressionConfig(threshold_rule=AbsoluteThreshold(10.0))
        ).compress(graph)
        compressed = result.compressed.graph
        # The only edge left is the bridge with its original weight.
        assert compressed.edge_count == 1
        _, _, weight = next(iter(compressed.edges()))
        assert weight == 2.0

    def test_rounds_reported(self, clusters):
        result = GraphCompressor().compress(clusters)
        assert result.rounds_total >= 1
        assert len(result.component_reports) == 1

    def test_one_component_subgraph_is_propagated_in_place(self, clusters, monkeypatch):
        """A planner input (a ``subgraph`` output) is not copied again;
        a graph whose neighbour order ``subgraph`` would change is."""
        copies = []
        original = WeightedGraph.subgraph

        def counting(self, nodes):
            copies.append(self)
            return original(self, nodes)

        planner_input = clusters.subgraph(clusters.nodes())
        reordered = WeightedGraph()
        for n in (0, 1, 2):
            reordered.add_node(n)
        reordered.add_edge(2, 1)
        reordered.add_edge(0, 1)
        assert planner_input.in_subgraph_order()
        assert not reordered.in_subgraph_order()
        monkeypatch.setattr(WeightedGraph, "subgraph", counting)
        GraphCompressor().compress(planner_input)
        assert copies == []
        GraphCompressor().compress(reordered)
        assert copies == [reordered]
