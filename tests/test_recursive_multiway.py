"""Tests for recursive spectral partitioning and the multiway planner mode."""

import pytest

from repro.core.baselines import make_planner, spectral_cut_strategy
from repro.core.config import PlannerConfig
from repro.core.planner import OffloadingPlanner
from repro.graphs.generators import (
    path_graph,
    random_connected_graph,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.system import MECSystem, UserContext
from repro.spectral.recursive import recursive_spectral_partition
from repro.workloads.applications import call_graph_from_weighted_graph, synthesize_application
from repro.workloads.netgen import NetgenConfig, netgen_graph


def four_cluster_graph() -> WeightedGraph:
    """Four dense clusters chained by light bridges."""
    g = WeightedGraph()
    for i in range(16):
        g.add_node(i, weight=1.0)
    for base in range(0, 16, 4):
        members = range(base, base + 4)
        for i in members:
            for j in members:
                if i < j:
                    g.add_edge(i, j, weight=10.0)
    for bridge in (3, 7, 11):
        g.add_edge(bridge, bridge + 1, weight=0.5)
    return g


class TestRecursivePartition:
    def test_parts_partition_nodes(self):
        g = random_connected_graph(20, 40, seed=1)
        result = recursive_spectral_partition(g, max_parts=4)
        covered: set = set()
        for part in result.parts:
            assert part
            assert not covered & part
            covered |= part
        assert covered == set(g.nodes())

    def test_respects_max_parts(self):
        g = random_connected_graph(30, 60, seed=2)
        for k in (1, 2, 3, 6):
            result = recursive_spectral_partition(g, max_parts=k, max_cut_ratio=100.0)
            assert len(result.parts) <= k

    def test_finds_four_clusters(self):
        g = four_cluster_graph()
        result = recursive_spectral_partition(g, max_parts=4, max_cut_ratio=10.0)
        expected = {frozenset(range(b, b + 4)) for b in range(0, 16, 4)}
        assert {frozenset(p) for p in result.parts} == expected
        assert result.cut_total == pytest.approx(3 * 0.5)

    def test_cut_ratio_guard_blocks_expensive_splits(self):
        # A clique: any split is expensive relative to its weight.
        g = random_connected_graph(8, 28, seed=3, edge_weight_range=(50.0, 60.0))
        result = recursive_spectral_partition(g, max_parts=8, max_cut_ratio=0.01)
        assert len(result.parts) == 1
        assert result.rejected_splits >= 1

    def test_min_part_size_respected(self):
        g = path_graph(10)
        result = recursive_spectral_partition(g, max_parts=10, min_part_size=3)
        assert all(len(p) >= 3 or len(result.parts) == 1 for p in result.parts)

    def test_cut_total_matches_boundaries(self):
        g = random_connected_graph(18, 36, seed=4)
        result = recursive_spectral_partition(g, max_parts=4, max_cut_ratio=100.0)
        # Total cut equals half the sum of per-part boundaries.
        boundary_sum = sum(g.cut_weight(p) for p in result.parts)
        assert result.cut_total == pytest.approx(boundary_sum / 2.0)

    def test_invalid_arguments(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            recursive_spectral_partition(g, max_parts=0)
        with pytest.raises(ValueError):
            recursive_spectral_partition(g, min_part_size=0)
        with pytest.raises(ValueError):
            recursive_spectral_partition(g, max_cut_ratio=-0.5)

    def test_split_tree_recorded(self):
        g = four_cluster_graph()
        result = recursive_spectral_partition(g, max_parts=4, max_cut_ratio=10.0)
        assert len(result.split_tree) == result.splits == 3


class TestMultiwayPlanner:
    def make_planner(self, k: int) -> OffloadingPlanner:
        config = PlannerConfig(multiway_parts=k)
        return OffloadingPlanner(
            spectral_cut_strategy(), config=config, strategy_name=f"spectral-{k}way"
        )

    def test_multiway_produces_more_parts(self):
        g = netgen_graph(NetgenConfig(n_nodes=120, n_edges=500, seed=5))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=5)
        two_way = make_planner("spectral").plan_user(app)
        four_way = self.make_planner(4).plan_user(app)
        assert len(four_way.parts) >= len(two_way.parts)

    def test_multiway_parts_cover_functions(self):
        app = synthesize_application("mw", n_functions=50, seed=6)
        plan = self.make_planner(4).plan_user(app)
        covered = set().union(*plan.parts) if plan.parts else set()
        assert covered == set(app.offloadable_functions())

    def test_multiway_never_worse_on_combined_objective(self):
        """Finer granularity can only help the greedy (it may always
        reproduce the coarse placement)."""
        g = netgen_graph(NetgenConfig(n_nodes=120, n_edges=500, seed=7))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=7)
        profile = DeviceProfile(
            compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
        )
        device = MobileDevice("u1", profile=profile)
        system = MECSystem(EdgeServer(300.0), [UserContext(device, app)])

        coarse = make_planner("spectral").plan_system(system, {"u1": app})
        fine = self.make_planner(6).plan_system(system, {"u1": app})
        # Not strictly guaranteed (greedy is a heuristic), so allow a
        # small tolerance — but the fine plan must land in the same league.
        assert fine.consumption.combined() <= coarse.consumption.combined() * 1.05

    def test_bisections_start_fully_remote(self):
        app = synthesize_application("mw", n_functions=40, seed=8)
        plan = self.make_planner(4).plan_user(app)
        for side_one, side_two in plan.bisections:
            if side_two and not side_one:
                continue  # multiway group: (empty, all parts)
            # Remaining entries are single-node components, kept whole.
            assert len(side_one | side_two) <= 1
