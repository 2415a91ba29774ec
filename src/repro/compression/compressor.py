"""The graph compression facade (Algorithm 1).

``GraphCompressor`` wires together the threshold rule, label propagation,
termination criteria and node merging, and adds the component split: the
input graph is divided on connected-component boundaries ("component
boundaries" in the paper — our workload generators emit one connected
piece per application component) and each piece is compressed
independently, in component order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

from repro.compression.labels import QuantileThreshold, ThresholdRule
from repro.compression.merge import CompressedGraph, merge_labeled_graph
from repro.compression.propagation import LabelPropagation, PropagationReport
from repro.compression.termination import TerminationCriteria
from repro.graphs.components import connected_components
from repro.graphs.weighted_graph import WeightedGraph

NodeId = Hashable


@dataclass(frozen=True)
class CompressionConfig:
    """All tunables of Algorithm 1 in one place.

    ``alpha_threshold`` and ``max_rounds`` are the paper's ``alpha_t`` and
    ``beta_t``; ``threshold_rule`` supplies the coupling threshold ``w``.
    """

    threshold_rule: ThresholdRule = field(default_factory=QuantileThreshold)
    termination: TerminationCriteria = field(default_factory=TerminationCriteria)


@dataclass
class CompressionResult:
    """Outcome of compressing one (possibly multi-component) graph."""

    compressed: CompressedGraph
    component_reports: list[PropagationReport]

    @property
    def rounds_total(self) -> int:
        """Total propagation rounds across all components."""
        return sum(report.rounds for report in self.component_reports)


class GraphCompressor:
    """Compresses function data flow graphs per Algorithm 1.

    >>> from repro.graphs.generators import two_cluster_graph
    >>> compressor = GraphCompressor()
    >>> result = compressor.compress(two_cluster_graph(4))
    >>> result.compressed.graph.node_count <= 8
    True
    """

    def __init__(self, config: CompressionConfig | None = None) -> None:
        self.config = config or CompressionConfig()

    def compress(self, graph: WeightedGraph) -> CompressionResult:
        """Compress *graph*, splitting on component boundaries first.

        Each component's labels are offset past the previous component's,
        so labels never collide across components.  Each component is
        propagated over its :meth:`~repro.graphs.weighted_graph.WeightedGraph.subgraph`
        copy, whose neighbour order the traversal follows.  A one-component
        graph already in that order — every graph ``subgraph`` builds, so
        every planner input — is propagated in place: the copy would
        reproduce it exactly.
        """
        propagation = LabelPropagation(
            threshold_rule=self.config.threshold_rule,
            termination=self.config.termination,
        )
        reports: list[PropagationReport] = []
        labels: dict[NodeId, int] = {}
        label_offset = 0
        components = connected_components(graph)
        in_place = len(components) == 1 and graph.in_subgraph_order()
        for component in components:
            report = propagation.run(graph if in_place else graph.subgraph(component))
            reports.append(report)
            for node, label in report.labels.items():
                labels[node] = label + label_offset
            label_offset += max(report.labels.values(), default=-1) + 1
        compressed = merge_labeled_graph(graph, labels)
        return CompressionResult(compressed=compressed, component_reports=reports)
