"""Planner configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression.compressor import CompressionConfig
from repro.mec.objective import ObjectiveWeights


@dataclass(frozen=True)
class PlannerConfig:
    """Everything tunable about the offloading pipeline.

    The defaults reproduce the paper's algorithm: compression on (with the
    median-quantile coupling threshold), spectral cut, unweighted E + T
    objective.
    """

    compression: CompressionConfig = field(default_factory=CompressionConfig)
    objective: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    skip_compression: bool = False
    """Ablation switch: cut the raw offloadable graph directly (every
    function its own part).  Expensive on large graphs — exactly the
    cost the paper's compression stage exists to avoid."""

    multiway_parts: int = 2
    """Maximum parts per compressed sub-graph.  2 is the paper's single
    bisection; larger values switch to recursive spectral partitioning
    (extension — see :mod:`repro.spectral.recursive`), giving Algorithm 2
    finer placement granularity at the cost of more candidate moves."""

    initial_placement_mode: str = "anchored"
    """Which reading of Algorithm 2's ``V_2'`` seeds the greedy — see
    :func:`repro.mec.greedy.initial_placement`.  ``"anchored"`` is the
    reproduction default; ``"dominated"``/``"all-remote"`` explore more
    schemes at the cost of the cut-quality/transmission link."""
