"""Result types produced by the planners."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Hashable

from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.greedy import GreedyResult
from repro.mec.scheme import OffloadingScheme
from repro.mec.system import SystemConsumption

NodeId = Hashable


@dataclass(frozen=True)
class CutOutcome:
    """One sub-graph's bisection as produced by a cut strategy."""

    part_one: set[NodeId]
    part_two: set[NodeId]
    cut_value: float


CutStrategy = Callable[[WeightedGraph], CutOutcome]
"""A cut strategy bisects a compressed sub-graph.  Strategies for the
paper's three algorithms live in :mod:`repro.core.baselines`."""


@dataclass
class UserPlan:
    """Per-application planning artifacts (compression + cuts).

    ``parts[i]`` is a frozenset of function names placed as a unit;
    ``bisections`` pairs up part indices per compressed sub-graph, ready
    for Algorithm 2's initial placement.
    """

    app_name: str
    parts: list[frozenset[str]]
    bisections: list[tuple[set[int], set[int]]]
    compressed_nodes: int
    compressed_edges: int
    original_nodes: int
    original_edges: int
    cut_values: list[float] = field(default_factory=list)
    propagation_rounds: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock per pipeline stage, ``compress`` and ``cut``, filled by
    ``plan_user``.  The system-wide greedy time is not per-user: it is
    part of :attr:`PlanResult.planning_seconds`.  The plan service
    histograms attribute request cost from these."""

    @property
    def compression_ratio(self) -> float:
        """original/compressed node count (>= 1; higher = more compression)."""
        if self.compressed_nodes == 0:
            return 1.0
        return self.original_nodes / self.compressed_nodes

    @property
    def total_cut_value(self) -> float:
        """Sum of per-sub-graph minimum cut values."""
        return sum(self.cut_values)


@dataclass
class PlanResult:
    """Complete outcome of planning a multi-user system."""

    scheme: OffloadingScheme
    consumption: SystemConsumption
    user_plans: dict[str, UserPlan]
    greedy: GreedyResult
    planning_seconds: float = 0.0
    strategy_name: str = "spectral"

    @property
    def energy(self) -> float:
        """System energy ``E`` under the generated scheme."""
        return self.consumption.energy

    @property
    def time(self) -> float:
        """System time ``T`` under the generated scheme."""
        return self.consumption.time

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        c = self.consumption
        return (
            f"[{self.strategy_name}] E={c.energy:.3f} (local {c.local_energy:.3f} + "
            f"tx {c.transmission_energy:.3f}), T={c.time:.3f}, "
            f"offloaded {self.scheme.total_offloaded} functions across "
            f"{len(self.user_plans)} planned app(s) in {self.planning_seconds:.3f}s"
        )
