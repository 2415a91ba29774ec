"""Edge cases and failure-mode tests across the pipeline.

Inputs the modules' happy paths never see: empty/degenerate applications,
extreme parameter regimes, pathological workloads — the places where
production libraries either behave sensibly or crash.
"""

import pytest

from repro.callgraph.model import FunctionCallGraph
from repro.core import PlannerConfig, make_planner
from repro.core.baselines import spectral_cut_strategy
from repro.core.planner import OffloadingPlanner
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext

PROFILE = DeviceProfile(
    compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
)


def system_for(app: FunctionCallGraph, server_capacity: float = 300.0):
    device = MobileDevice("u1", profile=PROFILE)
    return MECSystem(EdgeServer(server_capacity), [UserContext(device, app)])


class TestDegenerateApplications:
    def test_single_function_app(self):
        app = FunctionCallGraph("one")
        app.add_function("only", computation=10.0)
        result = make_planner("spectral").plan_system(system_for(app), {"u1": app})
        # One offloadable part; it either ships or stays — never crashes.
        assert result.consumption.energy >= 0.0

    def test_single_pinned_function_app(self):
        app = FunctionCallGraph("pinned")
        app.add_function("only", computation=10.0, offloadable=False)
        result = make_planner("spectral").plan_system(system_for(app), {"u1": app})
        assert result.scheme.remote_for("u1") == set()
        assert result.consumption.local_energy > 0.0

    def test_app_without_flows(self):
        app = FunctionCallGraph("isolated")
        for i in range(6):
            app.add_function(f"f{i}", computation=10.0 * (i + 1))
        result = make_planner("spectral").plan_system(system_for(app), {"u1": app})
        # Isolated functions have no transmission cost: shipping all of
        # them is free bandwidth-wise and relieves the device.
        assert result.consumption.transmission_energy == pytest.approx(0.0)
        assert result.scheme.offload_count("u1") > 0

    def test_zero_weight_functions(self):
        app = FunctionCallGraph("weightless")
        app.add_function("a", computation=0.0)
        app.add_function("b", computation=0.0)
        app.add_data_flow("a", "b", 1.0)
        result = make_planner("kl").plan_system(system_for(app), {"u1": app})
        assert result.consumption.energy >= 0.0

    def test_two_function_chain_each_strategy(self):
        for strategy in ("spectral", "maxflow", "kl"):
            app = FunctionCallGraph("pair")
            app.add_function("ui", computation=1.0, offloadable=False)
            app.add_function("work", computation=100.0)
            app.add_data_flow("ui", "work", 2.0)
            result = make_planner(strategy).plan_system(system_for(app), {"u1": app})
            assert "ui" not in result.scheme.remote_for("u1")


class TestExtremeParameters:
    def make_app(self):
        app = FunctionCallGraph("x")
        app.add_function("pin", computation=10.0, offloadable=False)
        for i in range(8):
            app.add_function(f"f{i}", computation=30.0)
        for i in range(7):
            app.add_data_flow(f"f{i}", f"f{i+1}", 5.0)
        app.add_data_flow("pin", "f0", 3.0)
        return app

    def test_free_bandwidth_offloads_everything_offloadable(self):
        app = self.make_app()
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=1.0,  # agonisingly slow device
                power_compute=10.0,
                power_transmit=0.001,
                bandwidth=1e6,
            ),
        )
        system = MECSystem(EdgeServer(1e6), [UserContext(device, app)])
        # The paper-default anchored seeding keeps one side of every
        # bisection on the device; the 'dominated' mode is the regime
        # knob for ship-everything conditions.
        config = PlannerConfig(initial_placement_mode="dominated")
        result = make_planner("spectral", config=config).plan_system(
            system, {"u1": app}
        )
        assert result.scheme.offload_count("u1") == 8

    def test_hostile_network_keeps_everything_local(self):
        app = self.make_app()
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=1e6,  # device is a supercomputer
                power_compute=0.001,
                power_transmit=1000.0,
                bandwidth=0.01,
            ),
        )
        system = MECSystem(EdgeServer(1.0), [UserContext(device, app)])
        result = make_planner("spectral").plan_system(system, {"u1": app})
        assert result.scheme.offload_count("u1") == 0

    def test_tiny_server_capacity_still_finishes(self):
        app = self.make_app()
        result = make_planner("spectral").plan_system(
            system_for(app, server_capacity=0.001), {"u1": app}
        )
        assert result.consumption.time < float("inf")

    def test_huge_weights_no_overflow(self):
        app = FunctionCallGraph("huge")
        app.add_function("a", computation=1e15)
        app.add_function("b", computation=1e15)
        app.add_data_flow("a", "b", 1e12)
        result = make_planner("spectral").plan_system(system_for(app), {"u1": app})
        assert result.consumption.energy < float("inf")


class TestPlannerRobustness:
    def test_single_node_components_kept_whole(self):
        app = FunctionCallGraph("small-comp")
        for i in range(3):
            app.add_function(f"f{i}", computation=5.0)
        app.add_data_flow("f0", "f1", 1.0)  # one 2-node component + isolate
        planner = OffloadingPlanner(spectral_cut_strategy(), strategy_name="s")
        plan = planner.plan_user(app)
        # The pair is bisected; the isolate never reaches the cut stage
        # and stays one part with an empty other side and a zero cut.
        assert sorted(map(sorted, plan.parts)) == [["f0"], ["f1"], ["f2"]]
        isolate = plan.parts.index(frozenset({"f2"}))
        assert ({isolate}, set()) in plan.bisections
        assert plan.cut_values[plan.bisections.index(({isolate}, set()))] == 0.0

    def test_plan_user_is_idempotent(self):
        from repro.workloads.applications import synthesize_application

        app = synthesize_application("idem", n_functions=40, seed=13)
        planner = make_planner("spectral")
        first = planner.plan_user(app)
        second = planner.plan_user(app)
        assert first.parts == second.parts
        assert first.bisections == second.bisections

    def test_mixed_users_some_fully_pinned(self):
        pinned = FunctionCallGraph("pinned")
        pinned.add_function("a", computation=50.0, offloadable=False)
        free = FunctionCallGraph("free")
        free.add_function("b", computation=50.0)
        users = [
            UserContext(MobileDevice("u1", profile=PROFILE), pinned),
            UserContext(MobileDevice("u2", profile=PROFILE), free),
        ]
        system = MECSystem(EdgeServer(300.0), users)
        result = make_planner("spectral").plan_system(
            system, {"u1": pinned, "u2": free}
        )
        assert result.scheme.remote_for("u1") == set()
        assert result.consumption.per_user["u1"].local_energy > 0.0

    def test_self_links_in_graph_construction(self):
        g = WeightedGraph()
        g.add_node("a")
        with pytest.raises(ValueError):
            g.add_edge("a", "a")


class TestPartitionedApplicationEdges:
    def test_empty_part_sets_filtered(self):
        app = FunctionCallGraph("e")
        app.add_function("f", computation=1.0)
        papp = PartitionedApplication("u1", app, [set(), {"f"}, set()])
        assert papp.part_count == 1

    def test_no_offloadable_functions(self):
        app = FunctionCallGraph("all-pinned")
        app.add_function("a", computation=1.0, offloadable=False)
        papp = PartitionedApplication("u1", app, [])
        assert papp.part_count == 0
        assert papp.local_weight(set()) == 1.0
        assert papp.cut_weight(set()) == 0.0
