"""Graph compression via label propagation (Algorithm 1 of the paper).

The pipeline: split the function data flow graph on component boundaries,
run a threshold-guided label propagation on each sub-graph (starting from
the max-degree node, terminating on the update-rate threshold ``alpha_t``
or the round cap ``beta_t``), then merge directly-connected nodes sharing
a label.  Highly coupled functions end up fused, guaranteeing they execute
on the same device.
"""

from repro.compression.compressor import (
    CompressionConfig,
    CompressionResult,
    GraphCompressor,
)
from repro.compression.labels import (
    AbsoluteThreshold,
    MeanScaledThreshold,
    QuantileThreshold,
    ThresholdRule,
)
from repro.compression.merge import CompressedGraph, merge_labeled_graph
from repro.compression.quality import (
    compression_quality,
    internalized_traffic_fraction,
    weighted_modularity,
)
from repro.compression.propagation import LabelPropagation, PropagationReport
from repro.compression.termination import TerminationCriteria

__all__ = [
    "GraphCompressor",
    "CompressionConfig",
    "CompressionResult",
    "ThresholdRule",
    "AbsoluteThreshold",
    "MeanScaledThreshold",
    "QuantileThreshold",
    "LabelPropagation",
    "PropagationReport",
    "TerminationCriteria",
    "CompressedGraph",
    "merge_labeled_graph",
    "compression_quality",
    "internalized_traffic_fraction",
    "weighted_modularity",
]
