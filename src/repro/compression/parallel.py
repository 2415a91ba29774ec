"""Parallel per-component compression.

Algorithm 1 creates "one new process for each sub-graph" and runs all
propagation processes in parallel.  Here each connected component's
propagation runs on a thread pool; results are combined in component
order, so the outcome is bit-identical to the serial path regardless of
scheduling.  (Threads rather than processes: the per-component work is
pure-Python graph walking, and avoiding pickling keeps small components
cheap; the ``max_workers`` knob still exercises real concurrency for the
Fig. 9 timing comparison.)
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from collections.abc import Hashable
from typing import TYPE_CHECKING

from repro.compression.merge import merge_labeled_graph
from repro.compression.propagation import LabelPropagation, PropagationReport
from repro.graphs.components import connected_components
from repro.graphs.weighted_graph import WeightedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.compression.compressor import CompressionConfig, CompressionResult

NodeId = Hashable


def compress_components_parallel(
    graph: WeightedGraph,
    config: "CompressionConfig",
    max_workers: int | None = None,
) -> "CompressionResult":
    """Compress *graph* with one propagation task per connected component.

    Deterministic: tasks may finish in any order, but label namespaces are
    assigned by component index, so the merged result equals the serial
    result exactly.
    """
    from repro.compression.compressor import CompressionResult

    components = connected_components(graph)
    subgraphs = [graph.subgraph(component) for component in components]

    def run_one(subgraph: WeightedGraph) -> PropagationReport:
        propagation = LabelPropagation(
            threshold_rule=config.threshold_rule,
            termination=config.termination,
            policy=config.policy,
        )
        return propagation.run(subgraph)

    if not subgraphs:
        reports: list[PropagationReport] = []
    elif len(subgraphs) == 1:
        reports = [run_one(subgraphs[0])]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as executor:
            reports = list(executor.map(run_one, subgraphs))

    labels: dict[NodeId, int] = {}
    label_offset = 0
    for report in reports:
        for node, label in report.labels.items():
            labels[node] = label + label_offset
        label_offset += max(report.labels.values(), default=-1) + 1

    compressed = merge_labeled_graph(graph, labels)
    return CompressionResult(compressed=compressed, component_reports=reports)
