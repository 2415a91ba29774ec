"""Tests for forecast-driven proactive orchestration (repro.forecast).

Covers the subsystem bottom-up: the bounded :class:`TimeSeries`
primitive and its registry hookup, forecaster accuracy on synthetic
traces (AR fits linear drift exactly and beats EWMA there; ``"auto"``
picks the lowest-MAE model), the :class:`FleetTelemetry` record/predict
surface, SLA admission as constrained placement (boundary admits,
all-infeasible degrades or rejects, degraded SLA users recover through
``retry_degraded``), the shared hypothetical-deployment helper that
keeps cost-aware rebalancing and SLA feasibility on one modelled-latency
path, proactive rebalancing on a forecasted hotspot, and same-seed
determinism of the whole experiment sweep.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.fleet.fleet as fleet_module
import repro.mec.online as online_module
from repro.core import make_planner
from repro.core.planner import OffloadingPlanner
from repro.core.results import UserPlan
from repro.experiments.fleet import run_fleet_routing_experiment
from repro.fleet import (
    EdgeFleet,
    FingerprintAffinityRouting,
    ForecastRouting,
    GeoLatencyMap,
    ServerLoad,
    StaticLatencyMap,
    all_local_breakdown,
    handle_outage,
    hypothetical_consumption,
    make_latency_map,
    modelled_user_cost,
)
from repro.forecast import (
    ARForecaster,
    AutoForecaster,
    EWMAForecaster,
    FleetTelemetry,
    NaiveForecaster,
    SLAReport,
    TimeSeries,
    UserSLA,
    make_forecaster,
    utilisation_series_name,
)
from repro.mec.channel import SharedChannel
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.online import OnlinePlanner
from repro.mec.scheme import PartitionedApplication
from repro.service.metrics import MetricsRegistry
from repro.service.plan_cache import PlanCache
from repro.simulation.faults import ServerOutage
from repro.workloads import synthesize_application
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import call_graph_from_dict, call_graph_to_dict


@pytest.fixture(scope="module")
def fleet_profile():
    return dataclasses.replace(
        quick_profile(), distinct_graphs=4, multiuser_graph_size=30
    )


def clone(app):
    return call_graph_from_dict(call_graph_to_dict(app))


def drift(n, slope=0.1, start=0.0):
    """A noiseless linear trend — AR(1)+intercept fits it exactly."""
    return [start + slope * t for t in range(n)]


# ----------------------------------------------------------------------
# TimeSeries + registry
# ----------------------------------------------------------------------
class TestTimeSeries:
    def test_window_wraps_and_count_keeps_totals(self):
        series = TimeSeries("util", window=4)
        for value in range(6):
            series.record(float(value))
        assert series.values() == [2.0, 3.0, 4.0, 5.0]  # oldest first
        assert len(series) == 4
        assert series.count == 6  # total ever, not just retained
        assert series.last == 5.0

    def test_empty_series(self):
        series = TimeSeries("empty")
        assert series.values() == []
        assert series.last is None
        assert len(series) == 0

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            TimeSeries("bad", window=1)

    def test_registry_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        series = registry.series("fleet_util_edge-00", window=8)
        assert registry.series("fleet_util_edge-00") is series
        series.record(0.2)
        series.record(0.4)
        snapshot = registry.snapshot()["series"]["fleet_util_edge-00"]
        assert snapshot["count"] == 2
        assert snapshot["last"] == pytest.approx(0.4)
        assert snapshot["mean"] == pytest.approx(0.3)
        assert "fleet_util_edge-00" in registry.render_report()


# ----------------------------------------------------------------------
# Forecasters
# ----------------------------------------------------------------------
class TestForecasters:
    def test_naive_is_persistence(self):
        model = NaiveForecaster()
        assert model.predict(1) == 0.0  # cold
        for value in (1.0, 3.0, 2.0):
            model.observe(value)
        assert model.predict(1) == 2.0
        assert model.predict(5) == 2.0

    def test_ewma_converges_on_a_level(self):
        model = EWMAForecaster(alpha=0.5)
        for _ in range(20):
            model.observe(0.6)
        assert model.predict(1) == pytest.approx(0.6)
        assert model.mae == pytest.approx(0.0)

    def test_ar_extrapolates_linear_drift_exactly(self):
        model = ARForecaster(order=1)
        for value in drift(20):
            model.observe(value)
        # history ends at 1.9; the trend continues 2.0, 2.1, 2.2, ...
        assert model.predict(1) == pytest.approx(2.0, abs=1e-6)
        assert model.predict(3) == pytest.approx(2.2, abs=1e-6)

    def test_ar_beats_ewma_on_drift(self):
        ar = ARForecaster(order=2)
        ewma = EWMAForecaster()
        for value in drift(40):
            ar.observe(value)
            ewma.observe(value)
        assert ar.mae < ewma.mae  # EWMA lags a trend; AR does not

    def test_auto_picks_ar_on_drift(self):
        auto = AutoForecaster()
        for value in drift(40):
            auto.observe(value)
        assert auto.best.name == "ar"
        assert auto.predict(1) == pytest.approx(4.0, abs=1e-6)

    def test_auto_breaks_ties_in_candidate_order(self):
        auto = AutoForecaster()
        for _ in range(10):
            auto.observe(1.0)  # every model is exact on a constant
        assert auto.best.name == "naive"

    def test_ar_falls_back_to_persistence_when_short(self):
        model = ARForecaster(order=2)
        for value in (1.0, 5.0, 3.0):  # < order + 2 observations
            model.observe(value)
        assert model.predict(1) == 3.0

    def test_mae_is_inf_until_scored(self):
        model = NaiveForecaster()
        assert model.mae == float("inf")
        model.observe(1.0)
        assert model.mae == float("inf")  # first value scores nothing
        model.observe(2.0)
        assert model.mae == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown forecaster"):
            make_forecaster("oracle")
        with pytest.raises(ValueError, match="order"):
            ARForecaster(order=0)
        with pytest.raises(ValueError, match="window"):
            ARForecaster(order=3, window=4)
        with pytest.raises(ValueError, match="alpha"):
            EWMAForecaster(alpha=0.0)
        with pytest.raises(ValueError, match="horizon"):
            NaiveForecaster().predict(0)

    def test_factory_dispatch(self):
        assert isinstance(make_forecaster("naive"), NaiveForecaster)
        assert isinstance(make_forecaster("ewma"), EWMAForecaster)
        assert isinstance(make_forecaster("ar"), ARForecaster)
        assert isinstance(make_forecaster("auto"), AutoForecaster)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestFleetTelemetry:
    def test_bad_forecaster_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown forecaster"):
            FleetTelemetry(MetricsRegistry(), forecaster="oracle")

    def test_cold_series_predicts_none(self):
        telemetry = FleetTelemetry(MetricsRegistry())
        assert telemetry.predict_utilisation("edge-00") is None
        assert telemetry.predict_rtt("u0", "edge-00") is None
        assert telemetry.mae(utilisation_series_name("edge-00")) == float("inf")

    def test_record_then_predict(self):
        telemetry = FleetTelemetry(MetricsRegistry(), forecaster="naive")
        for value in (0.1, 0.2, 0.3):
            telemetry.record_server("edge-00", value)
        telemetry.record_link("u0", "edge-00", 0.05)
        assert telemetry.predict_utilisation("edge-00") == pytest.approx(0.3)
        assert telemetry.predict_rtt("u0", "edge-00") == pytest.approx(0.05)
        series = telemetry.metrics.series(utilisation_series_name("edge-00"))
        assert series.count == 3

    def test_horizon_validation(self):
        telemetry = FleetTelemetry(MetricsRegistry())
        with pytest.raises(ValueError, match="horizon"):
            telemetry.predict_utilisation("edge-00", horizon=0)

    def test_hotspots_sorted_with_cold_fallback(self):
        telemetry = FleetTelemetry(MetricsRegistry(), forecaster="naive")
        telemetry.record_server("hot", 0.9)
        # "cold" has no history: its supplied current utilisation is used.
        forecasts = telemetry.hotspots({"hot": 0.9, "cold": 0.5}, horizon=1, threshold=0.8)
        assert [f.server_id for f in forecasts] == ["hot", "cold"]
        assert forecasts[0].breach and not forecasts[1].breach
        assert forecasts[1].predicted == pytest.approx(0.5)


# ----------------------------------------------------------------------
# SLA primitives
# ----------------------------------------------------------------------
class TestUserSLA:
    def test_boundary_admits_exactly(self):
        sla = UserSLA(deadline=10.0)
        assert sla.satisfied_by(10.0)  # exact boundary admits
        assert sla.satisfied_by(9.0)
        assert sla.violated_by(10.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            UserSLA(deadline=0.0)
        with pytest.raises(ValueError, match="on_infeasible"):
            UserSLA(deadline=1.0, on_infeasible="retry")

    def test_report_violation_rate(self):
        assert SLAReport(users=0, violations=0, rejections=0, degraded=0).violation_rate == 0.0
        report = SLAReport(users=4, violations=1, rejections=2, degraded=1)
        assert report.violation_rate == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Plan-cache probes (SLA feasibility borrows plans without stat churn)
# ----------------------------------------------------------------------
class TestPlanCachePeek:
    def test_peek_is_stat_and_lru_neutral(self):
        cache = PlanCache(capacity=2)
        plan_a = UserPlan("a", [], [], 0, 0, 0, 0)
        cache.put("a", plan_a)
        cache.put("b", UserPlan("b", [], [], 0, 0, 0, 0))
        before = cache.stats()
        assert cache.peek("a") is plan_a
        assert cache.peek("missing") is None
        after = cache.stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        # peek must not refresh LRU order: "a" stays oldest and is evicted.
        cache.put("c", UserPlan("c", [], [], 0, 0, 0, 0))
        assert "a" not in cache
        assert "b" in cache and "c" in cache


# ----------------------------------------------------------------------
# Shared modelled-cost helper (rebalance gain == SLA feasibility path)
# ----------------------------------------------------------------------
class TestSharedModelledHelper:
    def test_modelled_combined_delegates_to_the_shared_helper(self, fleet_profile):
        fleet = EdgeFleet(
            2,
            fleet_profile.server_capacity_per_user * 4 / 2,
            routing=FingerprintAffinityRouting(),
        )
        app = synthesize_application("shared", n_functions=20, seed=2)
        for i in range(4):
            fleet.admit(MobileDevice(f"u{i}", profile=fleet_profile.device), clone(app))
        weights = fleet.config.objective
        for server in fleet.servers.values():
            assert server.modelled_combined(weights) == pytest.approx(
                hypothetical_consumption(server).combined(weights)
            )
            # The no-hypothesis evaluation agrees with the live planner.
            assert server.modelled_combined(weights) == pytest.approx(
                server.current_consumption().combined(weights)
            )

    def test_modelled_user_cost_matches_the_ledger(self, fleet_profile):
        """SLA feasibility and fleet accounting speak one currency: the
        modelled cost of admitting a user on a server (RTT included)
        equals that user's post-admission ledger cost, on an empty or an
        occupied server, with private uplinks or a shared channel."""
        app = synthesize_application("ledger", n_functions=20, seed=3)
        rtt = 0.25
        plan = make_planner("spectral").plan_user(clone(app))
        channel = SharedChannel(capacity=1.5 * fleet_profile.device.bandwidth)
        for residents in (0, 2):
            for contended in (False, True):
                fleet = EdgeFleet(
                    1,
                    fleet_profile.server_capacity_per_user,
                    latency=StaticLatencyMap(server_rtt={"edge-00": rtt}),
                    channel=channel if contended else None,
                )
                for i in range(residents):
                    resident = synthesize_application(f"resident{i}", n_functions=20, seed=10 + i)
                    fleet.admit(MobileDevice(f"r{i}", profile=fleet_profile.device), resident)
                server = fleet.servers["edge-00"]
                device = MobileDevice("u0", profile=fleet_profile.device)
                weights = fleet.config.objective
                graph = clone(app)
                partitioned = PartitionedApplication("u0", graph, plan.parts)
                modelled = modelled_user_cost(server, device, partitioned, plan, weights, rtt=rtt)

                fleet.admit(MobileDevice("u0", profile=fleet_profile.device), graph)
                breakdown = fleet.total_consumption().per_user["u0"]
                assert modelled == pytest.approx(
                    weights.combine(breakdown.energy, breakdown.time)
                ), (residents, contended)


# ----------------------------------------------------------------------
# SLA admission control
# ----------------------------------------------------------------------
class TestSLAAdmission:
    def admitted_cost(self, fleet, user_id):
        breakdown = fleet.total_consumption().per_user[user_id]
        return fleet.config.objective.combine(breakdown.energy, breakdown.time)

    def test_deadline_equal_to_modelled_cost_admits(self, fleet_profile):
        app = synthesize_application("exact", n_functions=20, seed=4)
        capacity = fleet_profile.server_capacity_per_user
        probe = EdgeFleet(1, capacity)
        probe.admit(MobileDevice("u0", profile=fleet_profile.device), clone(app))
        cost = self.admitted_cost(probe, "u0")

        fleet = EdgeFleet(1, capacity)
        admission = fleet.admit(
            MobileDevice("u0", profile=fleet_profile.device),
            clone(app),
            sla=UserSLA(deadline=cost),
        )
        assert admission.server_id is not None
        assert not admission.degraded and not admission.rejected
        report = fleet.sla_report()
        assert (report.users, report.violations) == (1, 0)

    def test_all_infeasible_degrades_without_crashing(self, fleet_profile):
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user * 2)
        app = synthesize_application("tight", n_functions=20, seed=5)
        sla = UserSLA(deadline=1e-3)  # nothing can run this fast
        for i in range(4):
            admission = fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device), clone(app), sla=sla
            )
            assert admission.degraded and admission.server_id is None
        assert fleet.stats().degraded_users == 4
        report = fleet.sla_report()
        assert report.users == 4
        assert report.violations == 4  # all-local execution still misses 1ms
        assert report.degraded == 4
        assert report.violation_rate == pytest.approx(1.0)
        assert report.worst_excess > 0
        assert fleet.metrics.counter("fleet_sla_infeasible").value == 4
        # Retrying without new capacity re-queues them, no crash, no churn.
        assert fleet.retry_degraded() == []
        assert fleet.stats().degraded_users == 4

    def test_reject_action_turns_users_away(self, fleet_profile):
        fleet = EdgeFleet(1, fleet_profile.server_capacity_per_user)
        app = synthesize_application("reject", n_functions=20, seed=6)
        admission = fleet.admit(
            MobileDevice("u0", profile=fleet_profile.device),
            clone(app),
            sla=UserSLA(deadline=1e-3, on_infeasible="reject"),
        )
        assert admission.rejected
        assert admission.server_id is None and not admission.degraded
        assert fleet.stats().users == 0
        assert fleet.stats().degraded_users == 0
        report = fleet.sla_report()
        assert report.rejections == 1
        assert report.users == 0  # rejected users never entered the fleet

    def test_degraded_sla_user_recovers_via_retry(self, fleet_profile):
        """A feasible SLA user degraded for *capacity* keeps their SLA
        through the degraded queue and re-admits when a server returns."""
        fleet = EdgeFleet(
            2, fleet_profile.server_capacity_per_user, max_users_per_server=1
        )
        app = synthesize_application("retry", n_functions=20, seed=7)
        fleet.kill_server("edge-01")
        fleet.admit(MobileDevice("u0", profile=fleet_profile.device), clone(app))
        admission = fleet.admit(
            MobileDevice("u1", profile=fleet_profile.device),
            clone(app),
            sla=UserSLA(deadline=1e6),
        )
        assert admission.degraded  # the only alive server is at its cap

        recovered = fleet.revive_server("edge-01")
        assert [a.user_id for a in recovered] == ["u1"]
        assert recovered[0].server_id == "edge-01"
        report = fleet.sla_report()
        assert (report.users, report.degraded, report.violations) == (1, 0, 0)

    def test_failover_keeps_a_drained_users_sla(self, fleet_profile):
        """A drained user is re-admitted under their recorded SLA: the
        survivor that would reject a fresh arrival with this deadline
        does not get the user.  The user degrades rather than being
        rejected — failover loses nothing — and their SLA still travels
        with them, so they return to the big server once it is revived."""
        app = synthesize_application("hot", 30, seed=2)
        probe = EdgeFleet(capacities=[2000.0])
        probe.admit(MobileDevice("probe", profile=fleet_profile.device), clone(app))
        breakdown = probe.total_consumption().per_user["probe"]
        solo = probe.config.objective.combine(breakdown.energy, breakdown.time)
        sla = UserSLA(1.05 * solo, on_infeasible="reject")

        tiny = EdgeFleet(capacities=[20.0])
        assert tiny.admit(
            MobileDevice("u0", profile=fleet_profile.device), clone(app), sla=sla
        ).rejected

        fleet = EdgeFleet(capacities=[2000.0, 20.0])
        admission = fleet.admit(
            MobileDevice("u0", profile=fleet_profile.device), clone(app), sla=sla
        )
        assert admission.server_id == "edge-00"
        report = handle_outage(fleet, ServerOutage(time=1.0, server_id="edge-00"))
        assert report.reassigned == {}
        assert report.degraded == ["u0"]
        assert report.lost_users == 0
        assert fleet.servers["edge-01"].users == 0
        sla_report = fleet.sla_report()
        assert (sla_report.users, sla_report.degraded, sla_report.rejections) == (1, 1, 0)

        recovered = fleet.revive_server("edge-00")
        assert [(a.user_id, a.server_id) for a in recovered] == [("u0", "edge-00")]
        sla_report = fleet.sla_report()
        assert (sla_report.degraded, sla_report.violations) == (0, 0)


# ----------------------------------------------------------------------
# Admission work counts: each piece of work done once
# ----------------------------------------------------------------------
def count_partitions(monkeypatch):
    """Record the user id of every :class:`PartitionedApplication` built."""
    built = []
    original = PartitionedApplication.__init__

    def counting(self, user_id, *args, **kwargs):
        built.append(user_id)
        original(self, user_id, *args, **kwargs)

    monkeypatch.setattr(PartitionedApplication, "__init__", counting)
    return built


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name``; the returned list grows by one per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def record_greedies(monkeypatch):
    """Wrap the online planner's greedy; the returned list collects
    every result it returns."""
    results = []
    original = online_module.generate_offloading_scheme

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(online_module, "generate_offloading_scheme", recording)
    return results


def loaded_fleet(profile):
    """A 4-server affinity-routed fleet with six users of two apps admitted."""
    fleet = EdgeFleet(
        4, profile.server_capacity_per_user * 2, routing=FingerprintAffinityRouting()
    )
    apps = [synthesize_application(f"load{k}", n_functions=20, seed=k) for k in range(2)]
    for i in range(6):
        fleet.admit(MobileDevice(f"load-{i}", profile=profile.device), clone(apps[i % 2]))
    return fleet


def server_planner(profile):
    """One server's ledger, on its own, with the fleet's default strategy."""
    return OnlinePlanner(
        EdgeServer(profile.server_capacity_per_user), make_planner("spectral").cut_strategy
    )


class TestAdmissionWorkCounts:
    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    def test_sla_admission_partitions_the_newcomer_once(
        self, fleet_profile, monkeypatch, cached
    ):
        """The SLA check builds the newcomer's application once, prices
        it on all 4 servers, and the admitting server keeps that same
        instance (a build per pricing and one on admission would be
        2 x 4 + 1 = 9)."""
        fleet = loaded_fleet(fleet_profile)
        app = synthesize_application("newcomer", n_functions=20, seed=9)
        if cached:
            fleet.admit(MobileDevice("first", profile=fleet_profile.device), clone(app))
        built = count_partitions(monkeypatch)
        modelled = count_calls(monkeypatch, fleet_module, "modelled_user_cost")
        admission = fleet.admit(
            MobileDevice("new", profile=fleet_profile.device),
            clone(app),
            sla=UserSLA(deadline=1e6),
        )
        assert admission.server_id is not None
        assert admission.cache_hit is cached  # affinity: same app, same server
        assert len(modelled) == 4
        assert built.count("new") == 1
        kept = fleet.servers[admission.server_id].admitted["new"].app
        assert all(call[2] is kept for call in modelled)

    def test_cached_plan_with_other_parts_is_partitioned_afresh(self, fleet_profile):
        """The prepared application is reused only for a plan with its
        parts: a target cache holding a different plan under the key gets
        an application built from that plan."""
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user * 2)
        filler = synthesize_application("filler", n_functions=20, seed=1)
        fleet.admit(MobileDevice("filler", profile=fleet_profile.device), filler)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        key = fleet.request_key(graph)
        plan = make_planner("spectral").plan_user(graph)
        whole = dataclasses.replace(
            plan, parts=[frozenset(graph.offloadable_functions())], bisections=[]
        )
        fleet.servers["edge-00"].cache.put(key, plan)  # what the SLA check borrows
        fleet.servers["edge-01"].cache.put(key, whole)  # where round-robin admits
        admission = fleet.admit(
            MobileDevice("new", profile=fleet_profile.device), graph, sla=UserSLA(1e6)
        )
        assert (admission.server_id, admission.cache_hit) == ("edge-01", True)
        app, _ = fleet.servers["edge-01"].placement_of("new")
        assert admission.record.plan is whole
        assert [part.functions for part in app.parts] == whole.parts

    def test_retry_of_a_still_degraded_user_neither_fingerprints_nor_plans(
        self, fleet_profile, monkeypatch
    ):
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user * 2)
        app = synthesize_application("tight", n_functions=20, seed=5)
        for i in range(3):
            admission = fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                clone(app),
                sla=UserSLA(deadline=1e-3),
            )
            assert admission.degraded
        fingerprints = count_calls(monkeypatch, fleet_module, "request_fingerprint")
        plans = count_calls(monkeypatch, OffloadingPlanner, "plan_user")
        misses = fleet.stats().cache_misses
        assert fleet.retry_degraded() == []
        assert (len(fingerprints), len(plans)) == (0, 0)
        assert fleet.stats().degraded_users == 3
        assert fleet.stats().cache_misses == misses

    @pytest.mark.parametrize("with_sla", [False, True], ids=["plain", "sla"])
    def test_failover_neither_fingerprints_nor_plans(
        self, fleet_profile, monkeypatch, with_sla
    ):
        """Drained users bring the request key and plan the dead server
        held into their re-admission."""
        fleet = loaded_fleet(fleet_profile)
        for i in range(2):
            fleet.admit(
                MobileDevice(f"sla-{i}", profile=fleet_profile.device),
                synthesize_application(f"fresh{i}", n_functions=20, seed=20 + i),
                sla=UserSLA(deadline=1e6) if with_sla else None,
            )
        victim = next(
            sid for sid, server in fleet.servers.items() if "sla-0" in server.admitted
        )
        fingerprints = count_calls(monkeypatch, fleet_module, "request_fingerprint")
        plans = count_calls(monkeypatch, OffloadingPlanner, "plan_user")
        report = handle_outage(fleet, ServerOutage(time=1.0, server_id=victim))
        assert report.drained_users > 0 and report.lost_users == 0
        assert "sla-0" in report.reassigned
        assert (len(fingerprints), len(plans)) == (0, 0)

    @pytest.mark.parametrize("action", ["reject", "degrade"])
    def test_next_arrival_after_an_unplaced_one_is_not_planned_again(
        self, fleet_profile, monkeypatch, action
    ):
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user * 2)
        app = synthesize_application("tight", n_functions=20, seed=5)
        plans = count_calls(monkeypatch, OffloadingPlanner, "plan_user")
        first = fleet.admit(
            MobileDevice("u0", profile=fleet_profile.device),
            clone(app),
            sla=UserSLA(deadline=1e-3, on_infeasible=action),
        )
        assert (first.rejected, first.degraded) == (action == "reject", action == "degrade")
        assert len(plans) == 1
        second = fleet.admit(
            MobileDevice("u1", profile=fleet_profile.device), clone(app), sla=UserSLA(1e6)
        )
        assert second.server_id is not None
        assert len(plans) == 1
        # The kept plan was peeked, not requested: the admission is the
        # servers' only cache lookup, and it misses.
        stats = fleet.stats()
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)

    def test_shared_app_prices_like_a_fresh_one_on_every_server(self, fleet_profile):
        fleet = loaded_fleet(fleet_profile)
        device = MobileDevice("new", profile=fleet_profile.device)
        graph = clone(synthesize_application("newcomer", n_functions=20, seed=9))
        plan = make_planner("spectral").plan_user(graph)
        weights = fleet.config.objective
        shared = PartitionedApplication("new", graph, plan.parts)
        servers = list(fleet.servers.values())
        assert len(servers) == 4
        with_shared = [
            modelled_user_cost(server, device, shared, plan, weights, rtt=0.1)
            for server in servers
        ]
        fresh = [
            modelled_user_cost(
                server,
                device,
                PartitionedApplication("new", graph, plan.parts),
                plan,
                weights,
                rtt=0.1,
            )
            for server in servers
        ]
        assert with_shared == fresh

    def test_repeat_sla_arrival_of_one_graph_object_builds_no_partition(
        self, fleet_profile, monkeypatch
    ):
        fleet = loaded_fleet(fleet_profile)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        first = fleet.admit(
            MobileDevice("a", profile=fleet_profile.device), graph, sla=UserSLA(1e6)
        )
        built = count_partitions(monkeypatch)
        second = fleet.admit(
            MobileDevice("b", profile=fleet_profile.device), graph, sla=UserSLA(1e6)
        )
        assert built == []
        assert first.server_id == second.server_id  # affinity: one key, one server
        admitted = fleet.servers[second.server_id].admitted
        assert admitted["b"].app is admitted["a"].app

    @pytest.mark.parametrize("change", ["edit", "retouch", "clone"])
    def test_edited_or_cloned_graph_is_partitioned_afresh(
        self, fleet_profile, monkeypatch, change
    ):
        """An edit through ``.graph`` changes the content and so the key;
        a retouch (an edge set to its own weight) bumps the graph version
        under an unchanged key; a clone is another object with the same
        key.  Each arrival after one of them gets its own partition."""
        fleet = loaded_fleet(fleet_profile)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        fleet.admit(MobileDevice("a", profile=fleet_profile.device), graph, sla=UserSLA(1e6))
        key = fleet.request_key(graph)
        u, v, weight = next(iter(graph.graph.edges()))
        if change == "edit":
            graph.graph.set_edge_weight(u, v, weight + 1.0)
        elif change == "retouch":
            graph.graph.set_edge_weight(u, v, weight)
        else:
            graph = clone(graph)
        assert (fleet.request_key(graph) == key) is (change != "edit")
        built = count_partitions(monkeypatch)
        admission = fleet.admit(
            MobileDevice("b", profile=fleet_profile.device), graph, sla=UserSLA(1e6)
        )
        assert built == ["b"]
        app = fleet.servers[admission.server_id].admitted["b"].app
        assert app.call_graph is graph

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
    def test_sla_admission_runs_one_greedy_per_eligible_server(
        self, fleet_profile, monkeypatch, cached
    ):
        """Each of the 4 servers prices the newcomer once; the chosen
        server commits its pricing's placement without a fifth greedy."""
        fleet = loaded_fleet(fleet_profile)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        if cached:
            fleet.admit(MobileDevice("first", profile=fleet_profile.device), clone(graph))
        greedies = record_greedies(monkeypatch)
        modelled = count_calls(monkeypatch, fleet_module, "modelled_user_cost")
        admission = fleet.admit(
            MobileDevice("new", profile=fleet_profile.device), graph, sla=UserSLA(1e6)
        )
        assert admission.cache_hit is cached
        assert (len(modelled), len(greedies)) == (4, 4)
        server = fleet.servers[admission.server_id]
        (probe,) = [g for g in greedies if g.consumption is server.current_consumption()]
        assert server.admitted["new"].remote == probe.remote_parts["new"]

    @pytest.mark.parametrize("change", ["evict", "clear"])
    def test_ledger_change_between_probe_and_commit_forces_a_fresh_place(
        self, fleet_profile, monkeypatch, change
    ):
        """The planner commits its last placement only against the ledger
        it was made on.  Evicting the only other user (no survivor is
        placed again) or clearing the ledger leaves the probe as the last
        placement made; the commit must still place the newcomer afresh,
        alone on the server."""
        planner = server_planner(fleet_profile)
        planner.admit(
            MobileDevice("other", profile=fleet_profile.device),
            synthesize_application("other", n_functions=20, seed=3),
        )
        device = MobileDevice("new", profile=fleet_profile.device)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        plan = make_planner("spectral").plan_user(graph)
        app = PartitionedApplication("new", graph, plan.parts)
        probe = planner.place(device, app, plan)
        assert set(probe.consumption.per_user) == {"other", "new"}
        if change == "evict":
            planner.evict("other")
        else:
            planner.clear()
        greedies = record_greedies(monkeypatch)
        record = planner.admit_partitioned(device, app, plan)
        assert len(greedies) == 1
        assert set(record.consumption_after.per_user) == {"new"}
        alone = server_planner(fleet_profile).admit_partitioned(device, app, plan)
        assert record.consumption_after == alone.consumption_after

    def test_committed_probe_is_not_committed_twice(self, fleet_profile, monkeypatch):
        """A commit changes the ledger too: the probe it committed is not
        reused, so admitting the same newcomer again fails as it would
        without the probe."""
        planner = server_planner(fleet_profile)
        device = MobileDevice("new", profile=fleet_profile.device)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        plan = make_planner("spectral").plan_user(graph)
        app = PartitionedApplication("new", graph, plan.parts)
        greedies = record_greedies(monkeypatch)
        probe = planner.place(device, app, plan)
        record = planner.admit_partitioned(device, app, plan)
        assert len(greedies) == 1 and record.consumption_after is probe.consumption
        with pytest.raises(ValueError, match="already admitted"):
            planner.admit_partitioned(device, app, plan)

    @pytest.mark.parametrize("other", ["equal-plan", "device", "application", "bisections"])
    def test_probe_is_reused_only_for_the_same_newcomer(
        self, fleet_profile, monkeypatch, other
    ):
        """An equal plan (another object, same parts and bisections)
        commits the probe; another device object, another application
        object or other bisections are placed again."""
        planner = server_planner(fleet_profile)
        device = MobileDevice("new", profile=fleet_profile.device)
        graph = synthesize_application("newcomer", n_functions=20, seed=9)
        plan = make_planner("spectral").plan_user(graph)
        app = PartitionedApplication("new", graph, plan.parts)
        greedies = record_greedies(monkeypatch)
        planner.place(device, app, plan)
        committed = {
            "equal-plan": (device, app, dataclasses.replace(plan)),
            "device": (MobileDevice("new", profile=fleet_profile.device), app, plan),
            "application": (device, PartitionedApplication("new", graph, plan.parts), plan),
            "bisections": (device, app, dataclasses.replace(plan, bisections=plan.bisections[:-1])),
        }[other]
        planner.admit_partitioned(*committed)
        assert len(greedies) == (1 if other == "equal-plan" else 2)


def fleet_episode_outcome():
    """One fleet-admit-style episode: SLA admissions (loose, tight and
    rejecting deadlines) into a 4-server affinity-routed fleet, ticking
    every 4 arrivals and rebalancing proactively every 8.  Returns the
    per-user ledger as float hex and the SLA report."""
    profile = quick_profile().device
    fleet = EdgeFleet(4, 1200.0, routing=FingerprintAffinityRouting())
    weights = fleet.config.objective
    # Many pinned sensor functions: parts carry several anchor flows each.
    apps = [
        synthesize_application(f"app{k}", n_functions=40, seed=k, sensor_fraction=0.3)
        for k in range(3)
    ]
    rng = random.Random(7)
    mix = [(1.05, "degrade")] * 4 + [(0.5, "degrade"), (0.5, "reject")]
    for k in range(24):
        device = MobileDevice(f"u{k:02d}", profile=profile)
        graph = clone(apps[rng.randrange(len(apps))])
        local = all_local_breakdown(device, graph)
        factor, action = rng.choice(mix)
        deadline = factor * weights.combine(local.energy, local.time)
        fleet.admit(device, graph, sla=UserSLA(deadline, action))
        if (k + 1) % 4 == 0:
            fleet.tick()
        if (k + 1) % 8 == 0:
            fleet.rebalance(proactive=True)
    ledger = {
        user_id: [breakdown.energy.hex(), breakdown.time.hex()]
        for user_id, breakdown in sorted(fleet.total_consumption().per_user.items())
    }
    return {"ledger": ledger, "sla": dataclasses.asdict(fleet.sla_report())}


def zipf_sla_episode(share: bool, monkeypatch):
    """An SLA episode over Zipf repeats of three apps into a 4-server
    affinity-routed fleet, with loose, tight and rejecting deadlines, a
    tick every 4 arrivals and a proactive rebalance every 8.  With
    *share* a repeat arrival brings the very graph object of the earlier
    ones; without, each arrival brings its own clone.  Returns every
    admission outcome and rebalance move count, each server's
    placements, the fleet's consumption and SLA report, and the number
    of partitions built."""
    built = count_partitions(monkeypatch)
    profile = quick_profile().device
    fleet = EdgeFleet(4, 1200.0, routing=FingerprintAffinityRouting())
    weights = fleet.config.objective
    apps = [
        synthesize_application(f"app{k}", n_functions=40, seed=k, sensor_fraction=0.3)
        for k in range(3)
    ]
    rng = random.Random(11)
    mix = [(1.05, "degrade")] * 4 + [(0.5, "degrade"), (0.5, "reject")]
    outcomes: list[object] = []
    for k in range(32):
        device = MobileDevice(f"u{k:02d}", profile=profile)
        graph = rng.choices(apps, weights=[1.0, 0.5, 1 / 3])[0]
        if not share:
            graph = clone(graph)
        local = all_local_breakdown(device, graph)
        factor, action = rng.choice(mix)
        deadline = factor * weights.combine(local.energy, local.time)
        admission = fleet.admit(device, graph, sla=UserSLA(deadline, action))
        outcomes.append(
            (admission.server_id, admission.cache_hit, admission.degraded, admission.rejected)
        )
        if (k + 1) % 4 == 0:
            fleet.tick()
        if (k + 1) % 8 == 0:
            outcomes.append(fleet.rebalance(proactive=True))
    for server in fleet.servers.values():
        for user in server.admitted.values():
            assert user.weights == user.app.weights(user.remote)
    return {
        "outcomes": outcomes,
        "placements": {
            server_id: {uid: sorted(user.remote) for uid, user in server.admitted.items()}
            for server_id, server in fleet.servers.items()
        },
        "consumption": fleet.total_consumption(),
        "sla": fleet.sla_report(),
        "partitions": len(built),
    }


def test_shared_graph_objects_admit_like_clones(monkeypatch):
    """Partitions and probes reused across repeat arrivals of one graph
    object change nothing: the episode with shared objects equals the
    one where every arrival is a clone, outcome for outcome and bit for
    bit, while building fewer partitions."""
    shared = zipf_sla_episode(True, monkeypatch)
    cloned = zipf_sla_episode(False, monkeypatch)
    assert shared.pop("partitions") < cloned.pop("partitions")
    assert shared == cloned
    admissions = [o for o in shared["outcomes"] if isinstance(o, tuple)]
    assert any(o[2] for o in admissions) and any(o[3] for o in admissions)
    assert any(o[1] for o in admissions)
    assert sum(o for o in shared["outcomes"] if isinstance(o, int)) > 0


# Anchor traffic is summed over a set of function names, whose order
# follows the hash seed; the ledger must not.
_FLEET_HASH_SEED_PROBE = """
import json
from tests.test_forecast import fleet_episode_outcome
print(json.dumps(fleet_episode_outcome()))
"""


def test_fleet_episode_independent_of_hash_seed():
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join([str(root / "src"), str(root)])
    outcomes = []
    for seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-c", _FLEET_HASH_SEED_PROBE],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath},
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        outcomes.append(json.loads(completed.stdout.splitlines()[-1]))
    assert outcomes[0] == outcomes[1]
    sla = outcomes[0]["sla"]
    # The episode exercises every admission outcome.
    assert sla["degraded"] > 0 and sla["rejections"] > 0
    assert len(outcomes[0]["ledger"]) > sla["degraded"]


# ----------------------------------------------------------------------
# Forecast-aware routing
# ----------------------------------------------------------------------
class TestForecastRouting:
    def load(self, server_id, utilisation, predicted=None, rtt=0.0):
        return ServerLoad(
            server_id=server_id,
            users=1,
            remote_load=utilisation * 100.0,
            capacity=100.0,
            rtt=rtt,
            predicted_utilisation=predicted,
        )

    def test_prefers_the_cooler_forecast(self):
        policy = ForecastRouting()
        # "a" is cool now but trending hot; "b" is warm now, cooling off.
        choice = policy.route(
            "key",
            [self.load("a", 0.1, predicted=0.9), self.load("b", 0.8, predicted=0.2)],
        )
        assert choice == "b"

    def test_falls_back_to_current_utilisation_without_forecast(self):
        policy = ForecastRouting()
        choice = policy.route(
            "key", [self.load("a", 0.7), self.load("b", 0.3)]
        )
        assert choice == "b"

    def test_latency_weight_folds_rtt_into_the_choice(self):
        policy = ForecastRouting(latency_weight=1.0)
        choice = policy.route(
            "key",
            [
                self.load("near", 0.5, predicted=0.5, rtt=0.0),
                self.load("far", 0.4, predicted=0.4, rtt=0.5),
            ],
        )
        assert choice == "near"


# ----------------------------------------------------------------------
# Seeded geo latency
# ----------------------------------------------------------------------
class TestSeededGeoLatency:
    def test_same_seed_reproduces_positions(self):
        ids = [f"u{i}" for i in range(6)]
        first = GeoLatencyMap(seed=7)
        second = GeoLatencyMap(seed=7)
        assert [first.position(i) for i in ids] == [second.position(i) for i in ids]

    def test_different_seeds_move_the_nodes(self):
        ids = [f"u{i}" for i in range(6)]
        one = GeoLatencyMap(seed=1)
        two = GeoLatencyMap(seed=2)
        assert [one.position(i) for i in ids] != [two.position(i) for i in ids]

    def test_unseeded_map_keeps_legacy_positions(self):
        assert GeoLatencyMap().position("u0") == GeoLatencyMap(seed=None).position("u0")

    def test_factory_threads_the_seed(self):
        geo = make_latency_map("geo", seed=5)
        assert isinstance(geo, GeoLatencyMap)
        assert geo.seed == 5


# ----------------------------------------------------------------------
# Proactive rebalancing
# ----------------------------------------------------------------------
class TestProactiveRebalance:
    def hotspot_fleet(self, fleet_profile, **kwargs):
        """Heterogeneous pool + affinity routing: every user of one hot
        app lands on one server, so its utilisation climbs tick by tick
        while the others idle — the forecastable hotspot."""
        fleet = EdgeFleet(
            capacities=[100.0, 400.0, 400.0],
            routing=FingerprintAffinityRouting(),
            **kwargs,
        )
        app = synthesize_application("hot", n_functions=30, seed=2)
        for i in range(12):
            fleet.admit(MobileDevice(f"u{i}", profile=fleet_profile.device), clone(app))
        return fleet

    def hot_server(self, fleet):
        return max(fleet.servers.values(), key=lambda s: s.utilisation)

    def test_forecasted_breach_triggers_charged_moves(self, fleet_profile):
        fleet = self.hotspot_fleet(fleet_profile)
        hot = self.hot_server(fleet)
        before = hot.utilisation
        assert before > 1.0  # the hotspot actually formed (oversubscribed)
        # Each offloader shifts ~0.65 utilisation onto a 400-capacity
        # server, so a 0.7 threshold lets the drain place one user per
        # cool server and then stop (a second each would breach it).
        moves = fleet.rebalance(proactive=True, horizon=3, utilisation_threshold=0.7)
        assert moves >= 1
        assert hot.utilisation < before  # the predicted breach was relieved
        assert fleet.migration_debt  # every move was charged
        assert fleet.metrics.counter("fleet_proactive_moves").value == moves
        assert fleet.metrics.counter("fleet_migrations").value == moves

    def test_threshold_above_the_forecast_means_no_moves(self, fleet_profile):
        fleet = self.hotspot_fleet(fleet_profile)
        headroom = 2 * max(s.utilisation for s in fleet.servers.values())
        assert fleet.rebalance(proactive=True, utilisation_threshold=headroom) == 0
        assert not fleet.migration_debt

    def test_proactive_requires_telemetry(self, fleet_profile):
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user, forecaster=None)
        app = synthesize_application("silent", n_functions=20, seed=8)
        fleet.admit(MobileDevice("u0", profile=fleet_profile.device), clone(app))
        assert fleet.telemetry is None  # admission ticks are no-ops
        with pytest.raises(ValueError, match="telemetry"):
            fleet.rebalance(proactive=True)

    def test_horizon_validation(self, fleet_profile):
        fleet = EdgeFleet(2, fleet_profile.server_capacity_per_user)
        with pytest.raises(ValueError, match="horizon"):
            fleet.rebalance(proactive=True, horizon=0)

    def test_admissions_feed_the_telemetry(self, fleet_profile):
        fleet = self.hotspot_fleet(fleet_profile)
        hot = self.hot_server(fleet)
        series = fleet.metrics.series(utilisation_series_name(hot.server_id))
        assert series.count >= 12  # one sample per admission tick
        assert fleet.telemetry.predict_utilisation(hot.server_id) > 0

    @pytest.mark.parametrize(
        "proactive, landed, violations, moves, cost, users",
        [
            (False, "110100000010", 2, 5, 24.21542807531955, [4, 4, 4]),
            (True, "110110110111", 0, 8, 38.74468492051128, [6, 1, 5]),
        ],
        ids=["reactive", "proactive"],
    )
    def test_hot_app_owned_by_the_tiny_server(
        self, fleet_profile, proactive, landed, violations, moves, cost, users
    ):
        """The layout ``benchmarks/bench_fleet_sla.py`` steers clear of:
        the hot app's affinity owner is the tiny server.  Twelve SLA
        users arrive in four batches, each followed by a rebalance; an
        arrival lands on the owner (``1`` in *landed*) while its modelled
        cost there meets the deadline, else on ``edge-00``.  The
        count-flattener stops after 5 moves with 2 users over their
        deadline; the forecast drain keeps every deadline but moves users
        8 times, so its migration bill exceeds the reactive one's.
        Pinned numbers: this walks the SLA probe, eviction and replay
        paths end to end."""
        app = synthesize_application("hot", 30, seed=2)
        probe = EdgeFleet(capacities=[2000.0])
        probe.admit(MobileDevice("probe", profile=fleet_profile.device), clone(app))
        breakdown = probe.total_consumption().per_user["probe"]
        solo = probe.config.objective.combine(breakdown.energy, breakdown.time)

        fleet = EdgeFleet(
            capacities=[2000.0, 120.0, 2000.0],
            routing=FingerprintAffinityRouting(),
            forecaster="auto",
        )
        sla = UserSLA(1.1 * solo)
        servers = []
        for batch in range(4):
            for i in range(3 * batch, 3 * batch + 3):
                admission = fleet.admit(
                    MobileDevice(f"u{i}", profile=fleet_profile.device), clone(app), sla=sla
                )
                servers.append(admission.server_id)
            if proactive:
                fleet.rebalance(proactive=True, horizon=3, utilisation_threshold=0.8)
            else:
                fleet.rebalance(cost_aware=False)
        report = fleet.sla_report()
        migration = fleet.metrics.histogram("fleet_migration_cost")
        owner = {"1": "edge-01", "0": "edge-00"}
        assert servers == [owner[flag] for flag in landed]
        assert (report.users, report.violations) == (12, violations)
        assert fleet.metrics.counter("fleet_migrations").value == moves
        assert migration.mean * migration.count == pytest.approx(cost, rel=1e-12)
        assert [server.users for server in fleet.servers.values()] == users


# ----------------------------------------------------------------------
# Same-seed determinism of the experiment sweep
# ----------------------------------------------------------------------
class TestExperimentDeterminism:
    def run_once(self, seed):
        return run_fleet_routing_experiment(
            n_users=8,
            n_servers=2,
            policies=("least-loaded", "forecast"),
            seed=seed,
            latency=GeoLatencyMap(seed=seed),
            rebalance="proactive",
            sla_deadline=200.0,
            forecaster="auto",
            horizon=2,
        )

    def test_identical_rows_for_identical_seeds(self):
        first = self.run_once(3)
        second = self.run_once(3)
        assert first.rows == second.rows
        assert first.single == second.single
        assert all(row.sla_users == 8 for row in first.rows)
