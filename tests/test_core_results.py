"""Unit tests for the planner result types and config validation."""

import pytest

from repro.core.config import PlannerConfig
from repro.core.results import CutOutcome, PlanResult, UserPlan
from repro.mec.greedy import GreedyResult
from repro.mec.scheme import OffloadingScheme
from repro.mec.system import SystemConsumption
from repro.mec.energy import ConsumptionBreakdown


def make_plan(**overrides) -> UserPlan:
    defaults = dict(
        app_name="app",
        parts=[frozenset({"a"}), frozenset({"b", "c"})],
        bisections=[({0}, {1})],
        compressed_nodes=10,
        compressed_edges=20,
        original_nodes=100,
        original_edges=300,
        cut_values=[5.0, 2.5],
        propagation_rounds=3,
    )
    defaults.update(overrides)
    return UserPlan(**defaults)


class TestUserPlan:
    def test_compression_ratio(self):
        assert make_plan().compression_ratio == pytest.approx(10.0)

    def test_compression_ratio_degenerate(self):
        assert make_plan(compressed_nodes=0).compression_ratio == 1.0

    def test_total_cut_value(self):
        assert make_plan().total_cut_value == pytest.approx(7.5)
        assert make_plan(cut_values=[]).total_cut_value == 0.0


class TestPlanResult:
    def make_result(self) -> PlanResult:
        consumption = SystemConsumption()
        consumption.per_user["u1"] = ConsumptionBreakdown(
            local_energy=3.0,
            transmission_energy=1.0,
            local_time=2.0,
            remote_time=1.0,
            transmission_time=0.5,
            waiting_time=0.0,
        )
        scheme = OffloadingScheme(remote_functions={"u1": {"b", "c"}})
        greedy = GreedyResult(scheme=scheme, consumption=consumption)
        return PlanResult(
            scheme=scheme,
            consumption=consumption,
            user_plans={"u1": make_plan()},
            greedy=greedy,
            planning_seconds=0.25,
            strategy_name="spectral",
        )

    def test_energy_time_accessors(self):
        result = self.make_result()
        assert result.energy == pytest.approx(4.0)
        assert result.time == pytest.approx(3.5)

    def test_summary_contents(self):
        summary = self.make_result().summary()
        assert "[spectral]" in summary
        assert "offloaded 2 functions" in summary
        assert "0.250s" in summary

    def test_scheme_accessors(self):
        scheme = self.make_result().scheme
        assert scheme.offload_count("u1") == 2
        assert scheme.offload_count("ghost") == 0
        assert scheme.total_offloaded == 2


class TestCutOutcome:
    def test_holds_partition(self):
        outcome = CutOutcome({"a"}, {"b"}, 2.0)
        assert outcome.part_one == {"a"}
        assert outcome.cut_value == 2.0


class TestPlannerConfigDefaults:
    def test_reproduction_defaults(self):
        config = PlannerConfig()
        assert config.initial_placement_mode == "anchored"
        assert config.multiway_parts == 2
        assert not config.skip_compression
        assert config.objective.energy == 1.0
        assert config.objective.time == 1.0

    def test_frozen(self):
        config = PlannerConfig()
        with pytest.raises(Exception):
            config.skip_compression = True  # type: ignore[misc]
