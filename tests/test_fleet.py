"""Tests for the multi-server edge fleet (repro.fleet).

Covers the acceptance contract of the fleet layer: routing-policy
behaviour (cycling, shortest-queue, power-of-two balance, consistent-
hash affinity and its minimal-remap property), sharded admission with
per-server plan caches (affinity hit rate within 10% of a single
server's), fleet-wide consumption aggregation, rebalancing, and
failover — killing one of N servers re-admits every drained user on the
survivors with finite E + T, and with zero surviving capacity users
degrade to all-local execution instead of being lost.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.fleet import (
    EdgeFleet,
    FingerprintAffinityRouting,
    LeastLoadedRouting,
    PowerOfTwoRouting,
    RoundRobinRouting,
    ServerLoad,
    all_local_breakdown,
    apply_outages,
    handle_outage,
    make_routing_policy,
)
from repro.core import PlannerConfig
from repro.mec.devices import MobileDevice
from repro.simulation import ServerOutage
from repro.workloads import synthesize_application
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import (
    call_graph_from_dict,
    call_graph_to_dict,
    replay_arrivals,
)
from tests.test_service import golden_graphs

POOL_SIZE = 4
REQUESTS = 24
SERVERS = 4

# EdgeFleet.request_key of tests/test_service.py's golden graphs.  Affinity
# routing hashes these keys, so a moved digest moves users between servers.
GOLDEN_FLEET_KEYS = {
    "chain": "42593b4df41ad74731d02f83ffc8b7154b200241a81eaabe5c551b7faf3bebfd",
    "odd": "39ed2d2fe557addc80741948d2b080eb9cd06889a4eb910095247d4d122238d5",
    "pinned": "0d51fe5b287b35461f298a46522edf135503d957aab78294bcb1fb30abfd0bf0",
}


@pytest.fixture(scope="module")
def fleet_profile():
    return dataclasses.replace(
        quick_profile(), distinct_graphs=POOL_SIZE, multiuser_graph_size=30
    )


@pytest.fixture(scope="module")
def arrival_trace(fleet_profile):
    workload = build_mec_system(REQUESTS, fleet_profile)
    return replay_arrivals(workload, rate=100.0, seed=0)


def make_fleet(fleet_profile, policy, servers=SERVERS, users=REQUESTS, **kwargs):
    capacity = fleet_profile.server_capacity_per_user * users / servers
    return EdgeFleet(servers, capacity, routing=policy, **kwargs)


def replay(fleet, arrivals, fleet_profile):
    return [
        fleet.admit(MobileDevice(user_id, profile=fleet_profile.device), graph)
        for user_id, graph in arrivals
    ]


def loads(counts: dict[str, int]) -> list[ServerLoad]:
    return [ServerLoad(server_id, users) for server_id, users in counts.items()]


class TestRoutingPolicies:
    def test_round_robin_cycles_in_order(self):
        policy = RoundRobinRouting()
        view = loads({"b": 0, "a": 0, "c": 0})
        picks = [policy.route(f"k{i}", view) for i in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_least_loaded_joins_shortest_queue(self):
        policy = LeastLoadedRouting()
        assert policy.route("k", loads({"a": 3, "b": 1, "c": 2})) == "b"
        # Ties break by remote load, then id.
        view = [ServerLoad("b", 1, 5.0), ServerLoad("a", 1, 9.0)]
        assert policy.route("k", view) == "b"

    def test_power_of_two_is_deterministic_per_seed(self):
        view = loads({f"s{i}": i for i in range(6)})
        first = [PowerOfTwoRouting(seed=7).route(f"k{i}", view) for i in range(20)]
        second = [PowerOfTwoRouting(seed=7).route(f"k{i}", view) for i in range(20)]
        assert first == second
        assert PowerOfTwoRouting(seed=7).route("k", loads({"only": 9})) == "only"

    def test_affinity_is_stable_and_key_partitioned(self):
        policy = FingerprintAffinityRouting()
        view = loads({"a": 0, "b": 0, "c": 0, "d": 0})
        keys = [f"fingerprint-{i}" for i in range(40)]
        first = {key: policy.route(key, view) for key in keys}
        second = {key: policy.route(key, view) for key in keys}
        assert first == second
        assert len(set(first.values())) > 1  # keys actually spread

    def test_affinity_removal_only_remaps_dead_servers_keys(self):
        policy = FingerprintAffinityRouting()
        full = loads({"a": 0, "b": 0, "c": 0, "d": 0})
        keys = [f"fingerprint-{i}" for i in range(60)]
        before = {key: policy.route(key, full) for key in keys}
        survivors = [server for server in full if server.server_id != "a"]
        after = {key: policy.route(key, survivors) for key in keys}
        for key in keys:
            if before[key] != "a":
                assert after[key] == before[key]
            else:
                assert after[key] != "a"

    def test_round_robin_handles_eligibility_churn(self):
        """Regression: a raw counter modulo the set size skips servers.

        The cursor is a server-id watermark, so when the eligible set
        shrinks between calls the cycle continues from the last-served
        id instead of jumping by stale index.
        """
        policy = RoundRobinRouting()
        assert policy.route("k0", loads({"a": 0, "b": 0, "c": 0})) == "a"
        # "b" is next even though the set shrank; index 1 % 2 picked "c".
        assert policy.route("k1", loads({"b": 0, "c": 0})) == "b"
        # Growing the set back resumes the cycle where it left off.
        assert policy.route("k2", loads({"a": 0, "b": 0, "c": 0})) == "c"
        assert policy.route("k3", loads({"a": 0, "b": 0, "c": 0})) == "a"
        # The watermark survives its own server's death mid-cycle.
        assert policy.route("k4", loads({"b": 0, "c": 0})) == "b"

    def test_least_loaded_utilisation_mode_respects_capacity(self):
        view = [
            ServerLoad("small", 2, remote_load=50.0, capacity=100.0),
            ServerLoad("big", 4, remote_load=100.0, capacity=1000.0),
        ]
        # Headcount says "small" (2 < 4); utilisation says "big" (.1 < .5).
        assert LeastLoadedRouting().route("k", view) == "small"
        assert LeastLoadedRouting(balance_on="utilisation").route("k", view) == "big"

    def test_balance_metric_is_validated(self):
        with pytest.raises(ValueError, match="unknown balance metric"):
            LeastLoadedRouting(balance_on="entropy")
        with pytest.raises(ValueError, match="unknown balance metric"):
            PowerOfTwoRouting(balance_on="entropy")

    def test_latency_weight_steers_toward_nearby_servers(self):
        view = [
            ServerLoad("far", 1, rtt=0.5),
            ServerLoad("near", 2, rtt=0.0),
        ]
        assert LeastLoadedRouting().route("k", view) == "far"
        assert LeastLoadedRouting(latency_weight=4.0).route("k", view) == "near"

    def test_affinity_latency_slack_trades_locality_for_proximity(self):
        strict = FingerprintAffinityRouting()
        view = loads({"a": 0, "b": 0, "c": 0})
        key = "fingerprint-x"
        owner = strict.route(key, view)
        far_view = [
            ServerLoad(s.server_id, 0, rtt=9.0 if s.server_id == owner else 0.0)
            for s in view
        ]
        rtts = {s.server_id: s.rtt for s in far_view}
        # Strict ring ownership ignores RTT entirely.
        assert strict.route(key, far_view) == owner
        # Zero slack always takes a nearest server (ring order tiebreak).
        nearest = FingerprintAffinityRouting(latency_slack=0.0).route(key, far_view)
        assert nearest != owner
        assert rtts[nearest] == 0.0
        # Generous slack restores cache locality.
        loose = FingerprintAffinityRouting(latency_slack=10.0)
        assert loose.route(key, far_view) == owner

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_routing_policy("random-walk")


class TestFleetAdmission:
    def test_affinity_hit_rate_matches_single_server(
        self, fleet_profile, arrival_trace
    ):
        """Acceptance: 4-server affinity hit rate within 10% of 1 server."""
        single = make_fleet(fleet_profile, RoundRobinRouting(), servers=1)
        replay(single, arrival_trace, fleet_profile)
        sharded = make_fleet(fleet_profile, FingerprintAffinityRouting())
        replay(sharded, arrival_trace, fleet_profile)

        single_rate = single.stats().cache_hit_rate
        sharded_rate = sharded.stats().cache_hit_rate
        assert single_rate == pytest.approx((REQUESTS - POOL_SIZE) / REQUESTS)
        assert sharded_rate >= single_rate - 0.10

    @pytest.mark.parametrize("name", sorted(GOLDEN_FLEET_KEYS))
    def test_request_key_matches_golden(self, name):
        graph = golden_graphs()[name]
        assert EdgeFleet().request_key(graph) == GOLDEN_FLEET_KEYS[name]
        assert EdgeFleet(config=PlannerConfig(multiway_parts=4)).request_key(
            graph
        ) == GOLDEN_FLEET_KEYS[name]

    def test_affinity_routes_on_content_not_config(self, fleet_profile):
        """A fleet's planner config does not decide which server owns an
        app: every app lands where a default-config fleet puts it."""
        apps = [
            synthesize_application(f"app{i}", n_functions=15, seed=i) for i in range(12)
        ]

        def owners(config):
            fleet = make_fleet(
                fleet_profile, FingerprintAffinityRouting(), users=48, config=config
            )
            return [
                fleet.admit(MobileDevice(f"u{i}", profile=fleet_profile.device), app).server_id
                for i, app in enumerate(apps)
            ]

        default = owners(None)
        assert len(set(default)) > 1
        assert owners(PlannerConfig(initial_placement_mode="dominated")) == default

    def test_power_of_two_keeps_load_balanced(self, fleet_profile, arrival_trace):
        """Acceptance: max/mean admitted users <= 1.5 on a uniform trace."""
        fleet = make_fleet(fleet_profile, PowerOfTwoRouting(seed=3))
        replay(fleet, arrival_trace, fleet_profile)
        stats = fleet.stats()
        assert stats.users == REQUESTS
        assert stats.imbalance <= 1.5

    def test_consumption_aggregates_every_user(self, fleet_profile, arrival_trace):
        fleet = make_fleet(fleet_profile, RoundRobinRouting())
        replay(fleet, arrival_trace, fleet_profile)
        consumption = fleet.total_consumption()
        assert set(consumption.per_user) == {uid for uid, _ in arrival_trace}
        assert consumption.energy > 0
        assert consumption.time > 0

    def test_duplicate_user_is_rejected_fleet_wide(self, fleet_profile):
        fleet = make_fleet(fleet_profile, LeastLoadedRouting(), users=2)
        app = synthesize_application("dup", n_functions=15, seed=5)
        device = MobileDevice("u1", profile=fleet_profile.device)
        fleet.admit(device, app)
        with pytest.raises(ValueError, match="already admitted"):
            fleet.admit(device, app)

    def test_cache_hits_skip_replanning(self, fleet_profile):
        fleet = make_fleet(fleet_profile, FingerprintAffinityRouting(), users=3)
        app = synthesize_application("popular", n_functions=20, seed=9)
        admissions = [
            fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                call_graph_from_dict(call_graph_to_dict(app)),
            )
            for i in range(3)
        ]
        assert [admission.cache_hit for admission in admissions] == [False, True, True]
        servers = {admission.server_id for admission in admissions}
        assert len(servers) == 1  # affinity pinned the app to one server

    def test_rebalance_flattens_affinity_skew(self, fleet_profile):
        fleet = make_fleet(fleet_profile, FingerprintAffinityRouting(), servers=3, users=6)
        app = synthesize_application("hot", n_functions=20, seed=2)
        for i in range(6):
            fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                call_graph_from_dict(call_graph_to_dict(app)),
            )
        assert fleet.stats().imbalance == pytest.approx(3.0)
        before = fleet.total_consumption()
        moves = fleet.rebalance(cost_aware=False)
        stats = fleet.stats()
        assert moves == 4
        assert stats.imbalance == pytest.approx(1.0)
        assert stats.users == 6
        after = fleet.total_consumption()
        assert set(after.per_user) == set(before.per_user)


def skewed_fleet(fleet_profile, servers=3, users=6, **kwargs):
    """Affinity-pinned fleet: every user runs the same hot app, so the
    whole trace lands on one server and rebalance has real work to do."""
    fleet = make_fleet(
        fleet_profile, FingerprintAffinityRouting(), servers=servers, users=users,
        **kwargs,
    )
    app = synthesize_application("hot", n_functions=20, seed=2)
    for i in range(users):
        fleet.admit(
            MobileDevice(f"u{i}", profile=fleet_profile.device),
            call_graph_from_dict(call_graph_to_dict(app)),
        )
    return fleet


class TestHeterogeneousFleet:
    def test_capacities_build_a_skewed_pool(self):
        fleet = EdgeFleet(capacities=[250.0, 500.0, 1000.0])
        caps = [
            server.server.total_capacity
            for _, server in sorted(fleet.servers.items())
        ]
        assert caps == [250.0, 500.0, 1000.0]

    def test_capacities_must_name_a_server(self):
        with pytest.raises(ValueError, match="at least one server"):
            EdgeFleet(capacities=[])

    def test_utilisation_routing_fills_the_big_server(self, fleet_profile):
        """Regression: headcount routing overloads small servers."""

        def fill(balance_on):
            fleet = EdgeFleet(
                capacities=[100.0, 1000.0],
                routing=LeastLoadedRouting(balance_on=balance_on),
            )
            for i in range(8):
                app = synthesize_application(f"app{i}", n_functions=20, seed=i)
                fleet.admit(MobileDevice(f"u{i}", profile=fleet_profile.device), app)
            return fleet

        by_users = fill("users")
        by_utilisation = fill("utilisation")
        big = "edge-01"
        assert by_users.servers[big].remote_load > 0  # users actually offload
        assert by_utilisation.servers[big].users > by_users.servers[big].users
        assert (
            by_utilisation.stats().utilisation_imbalance
            <= by_users.stats().utilisation_imbalance
        )


class TestRebalanceRegressions:
    def test_rebalance_never_overfills_past_user_cap(self, fleet_profile):
        """Regression: move targets must respect max_users_per_server."""
        fleet = skewed_fleet(fleet_profile, servers=2, users=7)
        hot = max(fleet.servers.values(), key=lambda s: s.users)
        cold = next(s for s in fleet.servers.values() if s is not hot)
        assert (hot.users, cold.users) == (7, 0)
        fleet.max_users_per_server = 2  # the operator tightens the cap
        moves = fleet.rebalance(cost_aware=False)
        # The cold server fills exactly to the cap and the pass stops:
        # the old global-idlest pick kept shovelling users past it.
        assert moves == 2
        assert cold.users == 2
        assert hot.users == 5

    def test_rebalance_keeps_user_gauges_fresh(self, fleet_profile):
        """Regression: both move endpoints must update fleet_users_*."""
        fleet = skewed_fleet(fleet_profile)
        moves = fleet.rebalance(cost_aware=False)
        assert moves > 0
        for server_id, server in fleet.servers.items():
            gauge = fleet.metrics.gauge(f"fleet_users_{server_id}").value
            assert gauge == server.users, (
                f"gauge fleet_users_{server_id} says {gauge}, "
                f"server holds {server.users}"
            )

    def test_rebalance_terminates_at_zero_tolerance(self, fleet_profile):
        """Regression: a spread of 1 used to ping-pong forever when the
        stop rule allowed no spread (each move just swapped which server
        was busiest)."""
        fleet = skewed_fleet(fleet_profile, servers=2, users=3)
        moves = fleet.rebalance(cost_aware=False)
        assert moves == 1  # 3/0 -> 2/1; spread 1 cannot improve
        assert sorted(s.users for s in fleet.servers.values()) == [1, 2]


class TestDegradedMode:
    def test_full_fleet_degrades_to_all_local(self, fleet_profile):
        fleet = make_fleet(
            fleet_profile, LeastLoadedRouting(), servers=2, users=4,
            max_users_per_server=1,
        )
        app = synthesize_application("deg", n_functions=15, seed=4)
        admissions = [
            fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                call_graph_from_dict(call_graph_to_dict(app)),
            )
            for i in range(4)
        ]
        assert [admission.degraded for admission in admissions] == [
            False, False, True, True,
        ]
        stats = fleet.stats()
        assert stats.degraded_users == 2
        consumption = fleet.total_consumption()
        assert len(consumption.per_user) == 4
        assert consumption.combined() > 0
        assert consumption.combined() < float("inf")

    def test_all_local_breakdown_matches_formulas(self, fleet_profile):
        app = synthesize_application("local", n_functions=12, seed=6)
        device = MobileDevice("u", profile=fleet_profile.device)
        breakdown = all_local_breakdown(device, app)
        expected_time = app.total_computation() / device.compute_capacity
        assert breakdown.local_time == pytest.approx(expected_time)
        assert breakdown.energy == pytest.approx(expected_time * device.power_compute)
        assert breakdown.transmission_energy == 0.0
        assert breakdown.remote_time == 0.0


class TestFailover:
    def test_outage_reassigns_every_user(self, fleet_profile, arrival_trace):
        """Acceptance: killing 1 of N servers loses no user, E+T finite."""
        fleet = make_fleet(fleet_profile, RoundRobinRouting())
        replay(fleet, arrival_trace, fleet_profile)
        victim = fleet.load_stats()[0].server_id
        drained_expected = fleet.servers[victim].users

        report = handle_outage(fleet, ServerOutage(time=1.0, server_id=victim))

        assert report.drained_users == drained_expected
        assert report.lost_users == 0
        assert not report.degraded
        assert set(report.reassigned.values()) <= set(fleet.servers)
        assert victim not in fleet.servers
        consumption = report.consumption_after
        assert len(consumption.per_user) == REQUESTS
        assert 0 < consumption.combined() < float("inf")

    def test_outage_with_no_capacity_degrades_users(self, fleet_profile):
        fleet = make_fleet(
            fleet_profile, LeastLoadedRouting(), servers=2, users=4,
            max_users_per_server=2,
        )
        app = synthesize_application("edge", n_functions=15, seed=8)
        for i in range(4):
            fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                call_graph_from_dict(call_graph_to_dict(app)),
            )
        victim = sorted(fleet.servers)[0]
        report = handle_outage(fleet, ServerOutage(time=0.5, server_id=victim))
        assert report.drained_users == 2
        assert report.lost_users == 0
        assert len(report.degraded) == 2  # the survivor was already full
        assert len(report.consumption_after.per_user) == 4
        assert report.consumption_after.combined() < float("inf")

    def test_killing_every_server_leaves_all_users_local(self, fleet_profile):
        fleet = make_fleet(fleet_profile, RoundRobinRouting(), servers=3, users=6)
        app = synthesize_application("blackout", n_functions=15, seed=10)
        for i in range(6):
            fleet.admit(
                MobileDevice(f"u{i}", profile=fleet_profile.device),
                call_graph_from_dict(call_graph_to_dict(app)),
            )
        outages = [
            ServerOutage(time=float(index), server_id=server_id)
            for index, server_id in enumerate(sorted(fleet.servers))
        ]
        reports = apply_outages(fleet, outages)
        assert sum(report.lost_users for report in reports) == 0
        assert not fleet.servers
        stats = fleet.stats()
        assert stats.degraded_users == 6
        consumption = fleet.total_consumption()
        assert len(consumption.per_user) == 6
        assert 0 < consumption.combined() < float("inf")
        # With no server left, no rebalance has a move to make.
        for cost_aware in (True, False):
            assert fleet.rebalance(cost_aware=cost_aware) == 0
        assert fleet.rebalance(proactive=True) == 0
        assert fleet.stats().degraded_users == 6

    def test_outage_requires_known_server(self, fleet_profile):
        fleet = make_fleet(fleet_profile, RoundRobinRouting(), servers=2, users=2)
        with pytest.raises(KeyError, match="unknown or already-dead"):
            handle_outage(fleet, ServerOutage(time=0.0, server_id="edge-99"))

    def test_server_outage_fault_validation(self):
        with pytest.raises(ValueError, match="server_id"):
            ServerOutage(time=1.0)


class TestFleetBenchCLI:
    def test_smoke_path(self, capsys):
        from repro.cli import main

        assert main(["fleet-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fleet-bench: 16 requests over 4 distinct apps" in out
        for policy in ("round-robin", "least-loaded", "power-of-two", "affinity"):
            assert policy in out
        assert "single server (equal total capacity)" in out

    def test_unknown_policy_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["fleet-bench", "--smoke", "--policies", "magic"]) == 2
        assert "unknown routing policies" in capsys.readouterr().err

    def test_mobility_sweep_path(self, capsys):
        from repro.cli import main

        assert main([
            "fleet-bench", "--smoke", "--mobility", "corridor",
            "--speed", "0.05", "--ticks", "6",
            "--handover", "never", "nearest:0", "nearest",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet-bench --mobility corridor" in out
        for arm in ("never", "nearest:0", "nearest"):
            assert arm in out
        assert "best handover policy" in out

    def test_unknown_handover_is_an_error(self, capsys):
        from repro.cli import main

        assert main([
            "fleet-bench", "--smoke", "--mobility", "corridor",
            "--handover", "psychic",
        ]) == 2
        assert "unknown handover policies" in capsys.readouterr().err
