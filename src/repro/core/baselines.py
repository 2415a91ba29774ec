"""Cut strategies for the paper's three algorithms (plus the Spark one).

Each strategy bisects one compressed sub-graph; the surrounding pipeline
(compression, greedy generation) is shared, mirroring the paper's
evaluation protocol: "We change the minimum cut calculation process by
the above mentioned three algorithms and compare their results."
"""

from __future__ import annotations

from repro.core.config import PlannerConfig
from repro.core.planner import OffloadingPlanner
from repro.core.results import CutOutcome, CutStrategy
from repro.distributed.cluster import LocalCluster
from repro.distributed.spark_spectral import DistributedFiedlerSolver
from repro.graphs.weighted_graph import WeightedGraph
from repro.mincut.st_selection import maxflow_bisect
from repro.partition.kernighan_lin import kernighan_lin_bisect
from repro.spectral.bisection import spectral_bisect
from repro.spectral.fiedler import FiedlerSolver


def spectral_cut_strategy(solver: FiedlerSolver | None = None) -> CutStrategy:
    """The paper's algorithm: bisect by the Fiedler vector's sign."""
    solver = solver or FiedlerSolver()

    def cut(graph: WeightedGraph) -> CutOutcome:
        result = spectral_bisect(graph, solver)
        return CutOutcome(result.part_one, result.part_two, result.cut_value)

    return cut


def distributed_spectral_cut_strategy(cluster: LocalCluster) -> CutStrategy:
    """Spectral cut with cluster-distributed mat-vecs (Fig. 9, "with Spark")."""
    solver = DistributedFiedlerSolver(cluster)

    def cut(graph: WeightedGraph) -> CutOutcome:
        result = spectral_bisect(graph, solver)  # duck-typed solver
        return CutOutcome(result.part_one, result.part_two, result.cut_value)

    return cut


def maxflow_cut_strategy() -> CutStrategy:
    """Baseline 1: Edmonds-Karp min cut between heuristic endpoints."""

    def cut(graph: WeightedGraph) -> CutOutcome:
        result = maxflow_bisect(graph)
        return CutOutcome(result.part_one, result.part_two, result.cut_value)

    return cut


def kl_cut_strategy(max_passes: int = 10) -> CutStrategy:
    """Baseline 2: Kernighan-Lin balanced bisection."""

    def cut(graph: WeightedGraph) -> CutOutcome:
        result = kernighan_lin_bisect(graph, max_passes=max_passes)
        return CutOutcome(result.part_one, result.part_two, result.cut_value)

    return cut


def sweep_cut_strategy() -> CutStrategy:
    """Extension: the Cheeger sweep cut (certified conductance bound).

    Bisects at the best-conductance prefix of the normalized-Laplacian
    spectral order — the split with the ``sqrt(2 lambda_2)`` guarantee.
    """
    from repro.spectral.cheeger import sweep_cut

    def cut(graph: WeightedGraph) -> CutOutcome:
        if graph.node_count < 2:
            return CutOutcome(set(graph.nodes()), set(), 0.0)
        _, side = sweep_cut(graph)
        other = set(graph.nodes()) - side
        return CutOutcome(side, other, graph.cut_weight(side))

    return cut


def multilevel_kl_cut_strategy(target_nodes: int = 32, seed: int = 7) -> CutStrategy:
    """Extension baseline: multilevel KL (coarsen -> KL -> refine)."""
    from repro.partition.multilevel import multilevel_kl_bisect

    def cut(graph: WeightedGraph) -> CutOutcome:
        result = multilevel_kl_bisect(graph, target_nodes=target_nodes, seed=seed)
        return CutOutcome(result.part_one, result.part_two, result.cut_value)

    return cut


_STRATEGY_BUILDERS = {
    "spectral": lambda: spectral_cut_strategy(),
    "maxflow": lambda: maxflow_cut_strategy(),
    "kl": lambda: kl_cut_strategy(),
    "multilevel-kl": lambda: multilevel_kl_cut_strategy(),
    "sweep": lambda: sweep_cut_strategy(),
}


def make_planner(
    strategy: str = "spectral",
    config: PlannerConfig | None = None,
    cluster: LocalCluster | None = None,
) -> OffloadingPlanner:
    """Build a planner for one of the paper's algorithms.

    *strategy* is ``"spectral"`` (the paper's), ``"maxflow"``, ``"kl"``,
    or ``"spectral-spark"`` (requires *cluster*).
    """
    if strategy == "spectral-spark":
        if cluster is None:
            raise ValueError("strategy 'spectral-spark' requires a cluster")
        return OffloadingPlanner(
            distributed_spectral_cut_strategy(cluster),
            config=config,
            strategy_name=strategy,
        )
    if strategy not in _STRATEGY_BUILDERS:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{sorted(_STRATEGY_BUILDERS)} or 'spectral-spark'"
        )
    return OffloadingPlanner(
        _STRATEGY_BUILDERS[strategy](), config=config, strategy_name=strategy
    )
