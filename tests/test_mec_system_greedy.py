"""Tests for the MEC system evaluation and Algorithm 2's greedy."""

import pytest

from repro.callgraph.model import FunctionCallGraph
from repro.mec.admission import (
    AllocationPolicy,
    EqualShareAllocation,
    FCFSQueueAllocation,
    ServerAllocation,
)
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.greedy import (
    PlacementEvaluator,
    generate_offloading_scheme,
    initial_placement,
)
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import OffloadingScheme, PartitionedApplication
from repro.mec.system import MECSystem, UserContext


def make_app(user_id: str = "u1") -> tuple[FunctionCallGraph, PartitionedApplication]:
    """Call graph with one pinned anchor and two offloadable parts."""
    fcg = FunctionCallGraph("test")
    fcg.add_function("main", computation=5.0, offloadable=False)
    fcg.add_function("a", computation=40.0)
    fcg.add_function("b", computation=30.0)
    fcg.add_function("c", computation=60.0)
    fcg.add_function("d", computation=20.0)
    fcg.add_data_flow("main", "a", 4.0)
    fcg.add_data_flow("a", "b", 12.0)
    fcg.add_data_flow("b", "c", 2.0)
    fcg.add_data_flow("c", "d", 15.0)
    app = PartitionedApplication(user_id, fcg, [{"a", "b"}, {"c", "d"}])
    return fcg, app


def make_system(n_users: int = 1, allocation=None) -> MECSystem:
    profile = DeviceProfile(
        compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
    )
    users = []
    for k in range(n_users):
        fcg, _ = make_app(f"u{k+1}")
        users.append(UserContext(MobileDevice(f"u{k+1}", profile=profile), fcg))
    return MECSystem(EdgeServer(total_capacity=300.0), users, allocation=allocation)


class TestPartitionedApplication:
    def test_part_metrics(self):
        _, app = make_app()
        assert app.part_count == 2
        part_ab = app.parts[0]
        assert part_ab.computation == 70.0
        assert part_ab.anchor_traffic == 4.0  # a <-> main
        assert app.parts[1].anchor_traffic == 0.0

    def test_inter_part_communication(self):
        _, app = make_app()
        assert app.inter_comm == {(0, 1): 2.0}  # b <-> c

    def test_weights_by_placement(self):
        _, app = make_app()
        assert app.remote_weight({0}) == 70.0
        assert app.local_weight({0}) == 5.0 + 80.0
        assert app.local_weight(set()) == 155.0

    def test_cut_by_placement(self):
        _, app = make_app()
        # Part 0 remote: crosses b-c (2) and main-a anchor (4).
        assert app.cut_weight({0}) == 6.0
        # Both remote: only the anchor crossing remains.
        assert app.cut_weight({0, 1}) == 4.0
        assert app.cut_weight(set()) == 0.0

    def test_overlapping_parts_rejected(self):
        fcg, _ = make_app()
        with pytest.raises(ValueError, match="overlap"):
            PartitionedApplication("u1", fcg, [{"a", "b"}, {"b", "c"}])

    def test_uncovered_function_rejected(self):
        fcg, _ = make_app()
        with pytest.raises(ValueError, match="not covered"):
            PartitionedApplication("u1", fcg, [{"a", "b"}])

    def test_pinned_function_in_part_rejected(self):
        fcg, _ = make_app()
        with pytest.raises(ValueError, match="unoffloadable"):
            PartitionedApplication("u1", fcg, [{"a", "b", "main"}, {"c", "d"}])


class TestSystemEvaluation:
    def test_all_local_consumption(self):
        system = make_system()
        _, app = make_app()
        consumption = system.evaluate_placement({"u1": app}, {"u1": set()})
        breakdown = consumption.per_user["u1"]
        assert breakdown.transmission_energy == 0.0
        assert breakdown.local_time == pytest.approx(155.0 / 20.0)
        assert breakdown.local_energy == pytest.approx(155.0 / 20.0)

    def test_offloading_reduces_local_term(self):
        system = make_system()
        _, app = make_app()
        local = system.evaluate_placement({"u1": app}, {"u1": set()})
        remote = system.evaluate_placement({"u1": app}, {"u1": {0, 1}})
        assert remote.local_energy < local.local_energy
        assert remote.transmission_energy > 0.0

    def test_duplicate_user_ids_rejected(self):
        profile = DeviceProfile()
        fcg, _ = make_app()
        users = [
            UserContext(MobileDevice("dup", profile=profile), fcg),
            UserContext(MobileDevice("dup", profile=profile), fcg),
        ]
        with pytest.raises(ValueError, match="unique"):
            MECSystem(EdgeServer(100.0), users)

    def test_no_users_rejected(self):
        with pytest.raises(ValueError):
            MECSystem(EdgeServer(100.0), [])

    def test_scheme_evaluation_matches_placement(self):
        system = make_system()
        _, app = make_app()
        scheme = OffloadingScheme(remote_functions={"u1": {"c", "d"}})
        via_scheme = system.evaluate_scheme({"u1": app}, scheme)
        via_parts = system.evaluate_placement({"u1": app}, {"u1": {1}})
        assert via_scheme.energy == pytest.approx(via_parts.energy)
        assert via_scheme.time == pytest.approx(via_parts.time)


class TestInitialPlacement:
    def test_anchored_mode_keeps_anchor_side_local(self):
        _, app = make_app()
        bisections = [({0}, {1})]
        placement = initial_placement({"u1": app}, {"u1": bisections})
        # Part 0 has anchor traffic (4 > 0) -> starts local; part 1 remote.
        assert placement["u1"] == {1}

    def test_anchored_tie_ships_heavier_side(self):
        fcg = FunctionCallGraph("t")
        fcg.add_function("a", computation=10.0)
        fcg.add_function("b", computation=50.0)
        fcg.add_data_flow("a", "b", 1.0)
        app = PartitionedApplication("u1", fcg, [{"a"}, {"b"}])
        placement = initial_placement({"u1": app}, {"u1": [({0}, {1})]})
        assert placement["u1"] == {1}  # heavier side b remote

    def test_dominated_mode_frees_compute_heavy_anchor_sides(self):
        _, app = make_app()
        placement = initial_placement(
            {"u1": app}, {"u1": [({0}, {1})]}, mode="dominated"
        )
        # Part 0: anchor 4 <= computation 70 -> remote too.
        assert placement["u1"] == {0, 1}

    def test_dominated_mode_pins_chatty_sides(self):
        fcg = FunctionCallGraph("t")
        fcg.add_function("main", computation=1.0, offloadable=False)
        fcg.add_function("chatty", computation=2.0)
        fcg.add_function("heavy", computation=50.0)
        fcg.add_data_flow("main", "chatty", 40.0)  # anchor >> computation
        fcg.add_data_flow("chatty", "heavy", 1.0)
        app = PartitionedApplication("u1", fcg, [{"chatty"}, {"heavy"}])
        placement = initial_placement(
            {"u1": app}, {"u1": [({0}, {1})]}, mode="dominated"
        )
        assert placement["u1"] == {1}

    def test_all_remote_mode(self):
        _, app = make_app()
        placement = initial_placement(
            {"u1": app}, {"u1": [({0}, {1})]}, mode="all-remote"
        )
        assert placement["u1"] == {0, 1}

    def test_unknown_mode_rejected(self):
        _, app = make_app()
        with pytest.raises(ValueError, match="unknown initial placement mode"):
            initial_placement({"u1": app}, {"u1": []}, mode="quantum")

    def test_empty_side_handled(self):
        _, app = make_app()
        placement = initial_placement({"u1": app}, {"u1": [({0}, set()), ({1}, set())]})
        # Un-split components start fully remote (Algorithm 2 inserts all
        # parts into V_2); the greedy loop is what pulls losers back.
        assert placement["u1"] == {0, 1}


class TestGreedy:
    def test_monotone_history(self):
        system = make_system()
        _, app = make_app()
        result = generate_offloading_scheme(
            system, {"u1": app}, {"u1": [({0}, {1})]}
        )
        for earlier, later in zip(result.history, result.history[1:]):
            assert later < earlier + 1e-9

    def test_unoffloadable_never_remote(self):
        system = make_system()
        _, app = make_app()
        result = generate_offloading_scheme(system, {"u1": app}, {"u1": [({0}, {1})]})
        assert "main" not in result.scheme.remote_for("u1")

    def test_lazy_matches_exhaustive(self):
        for n_users in (1, 3):
            system = make_system(n_users)
            apps = {}
            bisections = {}
            for k in range(n_users):
                _, app = make_app(f"u{k+1}")
                apps[f"u{k+1}"] = app
                bisections[f"u{k+1}"] = [({0}, {1})]
            lazy = generate_offloading_scheme(system, apps, bisections)
            exhaustive = generate_offloading_scheme(
                system, apps, bisections, exhaustive=True
            )
            assert lazy.consumption.combined() == pytest.approx(
                exhaustive.consumption.combined(), rel=1e-9
            )

    def test_final_consumption_consistent(self):
        system = make_system(2)
        apps = {}
        bisections = {}
        for k in range(2):
            _, app = make_app(f"u{k+1}")
            apps[f"u{k+1}"] = app
            bisections[f"u{k+1}"] = [({0}, {1})]
        result = generate_offloading_scheme(system, apps, bisections)
        recomputed = system.evaluate_placement(apps, result.remote_parts)
        assert result.consumption.energy == pytest.approx(recomputed.energy)
        assert result.consumption.time == pytest.approx(recomputed.time)

    def test_objective_weights_respected(self):
        """A time-only objective tolerates energy-expensive offloading."""
        system = make_system()
        _, app = make_app()
        time_only = generate_offloading_scheme(
            system,
            {"u1": app},
            {"u1": [({0}, {1})]},
            weights=ObjectiveWeights(energy=0.0, time=1.0),
        )
        energy_only = generate_offloading_scheme(
            system,
            {"u1": app},
            {"u1": [({0}, {1})]},
            weights=ObjectiveWeights(energy=1.0, time=0.0),
        )
        assert time_only.consumption.time <= energy_only.consumption.time + 1e-9
        assert energy_only.consumption.energy <= time_only.consumption.energy + 1e-9


class TestPlacementEvaluator:
    @pytest.mark.parametrize("allocation", [EqualShareAllocation(), FCFSQueueAllocation()])
    def test_incremental_matches_full_evaluation(self, allocation):
        system = make_system(3, allocation=allocation)
        apps = {}
        for k in range(3):
            _, app = make_app(f"u{k+1}")
            apps[f"u{k+1}"] = app
        remote = {"u1": {0, 1}, "u2": {1}, "u3": {0}}
        evaluator = PlacementEvaluator(
            system, apps, remote, ObjectiveWeights()
        )
        direct = system.evaluate_placement(apps, remote).combined()
        assert evaluator.combined() == pytest.approx(direct, rel=1e-9)

        # Evaluate a move without applying: must equal a from-scratch eval.
        predicted = evaluator.evaluate_move("u2", 1)
        moved = {"u1": {0, 1}, "u2": set(), "u3": {0}}
        expected = system.evaluate_placement(apps, moved).combined()
        assert predicted == pytest.approx(expected, rel=1e-9)

        # Apply and re-check state consistency.
        evaluator.apply_move("u2", 1)
        assert evaluator.combined() == pytest.approx(expected, rel=1e-9)

    def test_moving_non_remote_part_rejected(self):
        system = make_system()
        _, app = make_app()
        evaluator = PlacementEvaluator(system, {"u1": app}, {"u1": {1}}, ObjectiveWeights())
        with pytest.raises(ValueError):
            evaluator.evaluate_move("u1", 0)


def make_single_offload(
    computation: float, allocation=None
) -> tuple[MECSystem, dict[str, PartitionedApplication], dict[str, set[int]]]:
    """One user whose only remote work is one function of *computation*."""
    fcg = FunctionCallGraph("tiny")
    fcg.add_function("main", computation=40.0, offloadable=False)
    fcg.add_function("f", computation=computation)
    fcg.add_data_flow("main", "f", 7.0)
    profile = DeviceProfile(
        compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
    )
    system = MECSystem(
        EdgeServer(total_capacity=300.0),
        [UserContext(MobileDevice("u1", profile=profile), fcg)],
        allocation=allocation,
    )
    return system, {"u1": PartitionedApplication("u1", fcg, [{"f"}])}, {"u1": {0}}


class _ZeroGrant(AllocationPolicy):
    """Grants every user capacity 0, whatever their load."""

    def allocate(self, server, remote_loads):
        return ServerAllocation(
            capacity={user: 0.0 for user in remote_loads},
            waiting={user: 0.0 for user in remote_loads},
        )


class TestPricingDecisions:
    def test_idle_remote_load_costs_no_server_time(self):
        # 1e-13 is below MIN_REMOTE_LOAD: the allocation grants it nothing,
        # and formula (2) prices it at zero server time — in the system
        # model and in the greedy's evaluator alike.
        system, apps, remote = make_single_offload(1e-13)
        consumption = system.evaluate_placement(apps, remote)
        assert consumption.per_user["u1"].remote_time == 0.0
        assert consumption.per_user["u1"].waiting_time == 0.0
        evaluator = PlacementEvaluator(system, apps, remote, ObjectiveWeights())
        assert evaluator.combined() == consumption.combined()

    def test_zero_capacity_for_a_real_load_raises(self):
        system, apps, remote = make_single_offload(10.0, allocation=_ZeroGrant())
        with pytest.raises(ValueError, match="allocated_capacity"):
            system.evaluate_placement(apps, remote)
