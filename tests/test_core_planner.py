"""Tests for the planner pipeline and the baseline strategies."""

import pytest

from repro.compression.compressor import CompressionConfig
from repro.compression.labels import AbsoluteThreshold
from repro.core.baselines import (
    kl_cut_strategy,
    make_planner,
    maxflow_cut_strategy,
    spectral_cut_strategy,
)
from repro.core.config import PlannerConfig
from repro.core.planner import OffloadingPlanner
from repro.distributed.cluster import LocalCluster
from repro.graphs.generators import two_cluster_graph
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.system import MECSystem, UserContext
from repro.workloads.applications import (
    call_graph_from_weighted_graph,
    synthesize_application,
)
from repro.workloads.netgen import NetgenConfig, netgen_graph

ALL_STRATEGIES = ("spectral", "maxflow", "kl")


class TestCutStrategies:
    @pytest.mark.parametrize(
        "strategy",
        [spectral_cut_strategy(), maxflow_cut_strategy(), kl_cut_strategy()],
        ids=["spectral", "maxflow", "kl"],
    )
    def test_strategies_bisect(self, strategy):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.0)
        outcome = strategy(g)
        assert outcome.part_one | outcome.part_two == set(g.nodes())
        assert not outcome.part_one & outcome.part_two
        assert outcome.cut_value == pytest.approx(g.cut_weight(outcome.part_one))

    def test_spectral_and_kl_find_bridge(self):
        g = two_cluster_graph(4, intra_weight=10.0, bridge_weight=1.0)
        for strategy in (spectral_cut_strategy(), kl_cut_strategy()):
            assert strategy(g).cut_value == pytest.approx(1.0)

    def test_make_planner_names(self):
        for name in ALL_STRATEGIES:
            assert make_planner(name).strategy_name == name

    def test_make_planner_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_planner("quantum")

    def test_spark_planner_needs_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            make_planner("spectral-spark")
        with LocalCluster(workers=1) as cluster:
            planner = make_planner("spectral-spark", cluster=cluster)
            assert planner.strategy_name == "spectral-spark"


class TestPlanUser:
    def test_plan_structure(self):
        app = synthesize_application("demo", n_functions=40, seed=1)
        plan = make_planner("spectral").plan_user(app)
        assert plan.original_nodes == len(app.offloadable_functions())
        assert plan.compressed_nodes <= plan.original_nodes
        # Parts cover exactly the offloadable functions.
        covered = set().union(*plan.parts) if plan.parts else set()
        assert covered == set(app.offloadable_functions())

    def test_parts_disjoint(self):
        app = synthesize_application("demo", n_functions=60, seed=2)
        plan = make_planner("spectral").plan_user(app)
        seen: set[str] = set()
        for part in plan.parts:
            assert not seen & part
            seen |= part

    def test_bisections_reference_valid_parts(self):
        app = synthesize_application("demo", n_functions=50, seed=3)
        plan = make_planner("maxflow").plan_user(app)
        for side_one, side_two in plan.bisections:
            for index in side_one | side_two:
                assert 0 <= index < len(plan.parts)

    def test_compression_ratio_reported(self):
        g = netgen_graph(NetgenConfig(n_nodes=120, n_edges=520, seed=4))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=4)
        plan = make_planner("spectral").plan_user(app)
        assert plan.compression_ratio > 2.0  # netgen graphs compress well
        assert plan.propagation_rounds >= 1

    def test_skip_compression_ablation(self):
        g = netgen_graph(NetgenConfig(n_nodes=60, n_edges=250, seed=5))
        app = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.05, seed=5)
        config = PlannerConfig(skip_compression=True)
        plan = OffloadingPlanner(
            spectral_cut_strategy(), config=config, strategy_name="raw"
        ).plan_user(app)
        assert plan.compressed_nodes == plan.original_nodes
        assert plan.compression_ratio == pytest.approx(1.0)

    def test_all_unoffloadable_app(self):
        from repro.callgraph.model import FunctionCallGraph

        fcg = FunctionCallGraph("pinned")
        fcg.add_function("a", 5.0, offloadable=False)
        fcg.add_function("b", 5.0, offloadable=False)
        fcg.add_data_flow("a", "b", 2.0)
        plan = make_planner("spectral").plan_user(fcg)
        assert plan.parts == []
        assert plan.bisections == []


class TestPlanSystem:
    def make_system(self, app, n_users: int = 1):
        users = [
            UserContext(MobileDevice(f"u{k}"), app) for k in range(n_users)
        ]
        system = MECSystem(EdgeServer(total_capacity=300.0 * n_users), users)
        return system, {f"u{k}": app for k in range(n_users)}

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_scheme_is_feasible(self, strategy):
        app = synthesize_application("demo", n_functions=50, seed=7)
        system, graphs = self.make_system(app)
        result = make_planner(strategy).plan_system(system, graphs)
        pinned = set(app.unoffloadable_functions())
        for user_id in graphs:
            assert not result.scheme.remote_for(user_id) & pinned

    def test_identical_apps_planned_once(self):
        app = synthesize_application("demo", n_functions=40, seed=8)
        system, graphs = self.make_system(app, n_users=5)
        result = make_planner("spectral").plan_system(system, graphs)
        plans = list(result.user_plans.values())
        assert all(p is plans[0] for p in plans)

    def test_each_distinct_graph_object_fingerprinted_once(self, monkeypatch):
        import repro.service.fingerprint as fingerprint_module

        twin_a = synthesize_application("twin", n_functions=30, seed=13)
        twin_b = synthesize_application("twin", n_functions=30, seed=13)
        other = synthesize_application("other", n_functions=30, seed=14)
        apps = [twin_a, twin_b, other]
        users = [UserContext(MobileDevice(f"u{k}"), apps[k % 3]) for k in range(12)]
        system = MECSystem(EdgeServer(total_capacity=300.0 * len(users)), users)
        graphs = {f"u{k}": apps[k % 3] for k in range(12)}

        fingerprinted: list[object] = []
        real_fingerprint = fingerprint_module.request_fingerprint

        def counting_fingerprint(call_graph, *args):
            fingerprinted.append(call_graph)
            return real_fingerprint(call_graph, *args)

        monkeypatch.setattr(fingerprint_module, "request_fingerprint", counting_fingerprint)
        planner = make_planner("spectral")
        planned: list[object] = []
        real_plan_user = planner.plan_user

        def counting_plan_user(call_graph):
            planned.append(call_graph)
            return real_plan_user(call_graph)

        monkeypatch.setattr(planner, "plan_user", counting_plan_user)
        result = planner.plan_system(system, graphs)

        assert len(fingerprinted) == 3
        assert all(any(seen is app for seen in fingerprinted) for app in apps)
        # The twins are distinct objects with equal content: one plan.
        assert len(planned) == 2
        assert result.user_plans["u0"] is result.user_plans["u1"]
        assert result.user_plans["u0"] is not result.user_plans["u2"]

    def test_twins_split_after_one_is_edited(self, monkeypatch):
        """Equal-content twins share one plan until one is edited through
        ``.graph``; its memoized fingerprint then moves with its content."""
        twin_a = synthesize_application("twin", n_functions=30, seed=13)
        twin_b = synthesize_application("twin", n_functions=30, seed=13)
        users = [UserContext(MobileDevice(f"u{k}"), app) for k, app in enumerate((twin_a, twin_b))]
        system = MECSystem(EdgeServer(total_capacity=600.0), users)
        graphs = {"u0": twin_a, "u1": twin_b}
        planner = make_planner("spectral")
        planned: list[object] = []
        real_plan_user = planner.plan_user

        def counting_plan_user(call_graph):
            planned.append(call_graph)
            return real_plan_user(call_graph)

        monkeypatch.setattr(planner, "plan_user", counting_plan_user)
        first = planner.plan_system(system, graphs)
        assert len(planned) == 1
        assert first.user_plans["u0"] is first.user_plans["u1"]

        u, v, w = twin_b.graph.edge_list()[0]
        twin_b.graph.set_edge_weight(u, v, w + 1.0)
        planned.clear()
        second = planner.plan_system(system, graphs)
        assert len(planned) == 2
        assert any(seen is twin_b for seen in planned)
        assert second.user_plans["u0"] is not second.user_plans["u1"]

    def test_missing_call_graph_rejected(self):
        app = synthesize_application("demo", n_functions=20, seed=9)
        system, _ = self.make_system(app)
        with pytest.raises(KeyError, match="no call graph"):
            make_planner("spectral").plan_system(system, {})

    def test_consumption_matches_reevaluation(self):
        app = synthesize_application("demo", n_functions=45, seed=10)
        system, graphs = self.make_system(app, n_users=2)
        result = make_planner("spectral").plan_system(system, graphs)
        # The reported totals must be non-negative and self-consistent.
        c = result.consumption
        assert c.energy == pytest.approx(c.local_energy + c.transmission_energy)
        assert c.time >= 0.0
        assert result.planning_seconds > 0.0

    def test_summary_mentions_strategy(self):
        app = synthesize_application("demo", n_functions=30, seed=11)
        system, graphs = self.make_system(app)
        result = make_planner("kl").plan_system(system, graphs)
        assert "[kl]" in result.summary()

    def test_custom_compression_config_used(self):
        app = synthesize_application("demo", n_functions=40, seed=12)
        aggressive = PlannerConfig(
            compression=CompressionConfig(threshold_rule=AbsoluteThreshold(0.0))
        )
        plan = OffloadingPlanner(
            spectral_cut_strategy(), config=aggressive, strategy_name="s"
        ).plan_user(app)
        # Threshold 0 merges each connected component into one super node.
        assert plan.compressed_nodes <= len(app.components()) + 1
