"""Tests for the shared-channel contention model and best-response game.

Covers the channel math (``b_i(n)``), the single-user parity guarantee
(a lone offloader on an ample channel is bit-identical to the paper's
constant-``b`` model), the greedy's contention fixed point, the
decentralized best-response baseline, planner/simulator agreement on
upload times, channel threading through the fleet, and the experiment
sweep plus its CLI front-end.
"""

import dataclasses

import pytest

from repro.callgraph.model import FunctionCallGraph
from repro.fleet import EdgeFleet
from repro.mec.channel import (
    ChannelQuality,
    SharedChannel,
    make_quality_profile,
)
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.game import best_response_equilibrium, solo_offload_set
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.simulation import simulate_scheme

PROFILE = DeviceProfile(
    compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
)


def make_app(user_id: str) -> tuple[FunctionCallGraph, PartitionedApplication]:
    """Call graph with one pinned anchor and two offloadable parts."""
    fcg = FunctionCallGraph(user_id)
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


def make_system(
    n_users: int,
    channel: SharedChannel | None = None,
    server_capacity: float = 300.0,
) -> tuple[MECSystem, dict, dict]:
    """System + apps + bisections for ``n_users`` identical users."""
    users, apps, bisections = [], {}, {}
    for k in range(n_users):
        uid = f"u{k + 1}"
        fcg, app = make_app(uid)
        users.append(UserContext(MobileDevice(uid, profile=PROFILE), fcg))
        apps[uid] = app
        bisections[uid] = [({0}, {1})]
    system = MECSystem(
        EdgeServer(total_capacity=server_capacity), users, channel=channel
    )
    return system, apps, bisections


class TestChannelMath:
    def test_rate_splits_equally(self):
        ch = SharedChannel(capacity=100.0)
        assert ch.rate_for("u1", 4, device_bandwidth=70.0) == pytest.approx(25.0)

    def test_rate_capped_at_device_bandwidth(self):
        ch = SharedChannel(capacity=1000.0)
        assert ch.rate_for("u1", 2, device_bandwidth=70.0) == 70.0

    def test_default_efficiency_is_exactly_one(self):
        # No float round-trip through log2: the parity guarantee rests
        # on absent users getting *exactly* 1.0.
        ch = SharedChannel(capacity=100.0)
        assert ch.efficiency_for("absent") == 1.0

    def test_better_snr_earns_higher_rate(self):
        ch = SharedChannel(
            capacity=100.0, quality={"u1": ChannelQuality(gain=3.0)}
        )
        assert ch.rate_for("u1", 2, 1000.0) > ch.rate_for("u2", 2, 1000.0)

    def test_planning_rates_use_active_population(self):
        ch = SharedChannel(capacity=100.0)
        bandwidths = {"u1": 70.0, "u2": 70.0, "u3": 70.0}
        rates = ch.planning_rates(bandwidths, active=["u1", "u2"])
        # Everyone is priced at n=2, including the inactive u3.
        assert rates == {uid: pytest.approx(50.0) for uid in bandwidths}

    def test_empty_active_set_prices_at_n_one(self):
        ch = SharedChannel(capacity=100.0)
        assert ch.planning_rates({"u1": 70.0}, active=[]) == {"u1": 70.0}

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SharedChannel(capacity=0.0)
        with pytest.raises(ValueError, match="gain"):
            ChannelQuality(gain=-1.0)

    def test_quality_profile_deterministic(self):
        ids = ["u1", "u2", "u3"]
        first = make_quality_profile(ids, spread=0.3, seed=7)
        second = make_quality_profile(list(reversed(ids)), spread=0.3, seed=7)
        assert first == second
        for quality in first.values():
            assert 0.7 <= quality.gain <= 1.3

    def test_quality_profile_zero_spread_is_empty(self):
        # The parity regime: no overrides at all, so efficiency_for
        # short-circuits to exactly 1.0 for every user.
        assert make_quality_profile(["u1", "u2"], spread=0.0) == {}

    def test_quality_profile_invalid_spread(self):
        with pytest.raises(ValueError, match="spread"):
            make_quality_profile(["u1"], spread=1.0)


class TestSingleUserParity:
    """One offloader on an ample channel == the paper's constant-b model."""

    def test_evaluate_placement_bit_identical(self):
        plain_system, apps, _ = make_system(1)
        channel_system, _, _ = make_system(
            1, channel=SharedChannel(capacity=PROFILE.bandwidth)
        )
        placement = {"u1": {0, 1}}
        plain = plain_system.evaluate_placement(apps, placement)
        shared = channel_system.evaluate_placement(apps, placement)
        assert shared.per_user == plain.per_user
        assert shared.effective_bandwidth == {"u1": PROFILE.bandwidth}

    def test_greedy_bit_identical(self):
        plain_system, apps, bisections = make_system(1)
        channel_system, _, _ = make_system(
            1, channel=SharedChannel(capacity=10.0 * PROFILE.bandwidth)
        )
        plain = generate_offloading_scheme(plain_system, apps, bisections)
        shared = generate_offloading_scheme(channel_system, apps, bisections)
        assert shared.remote_parts == plain.remote_parts
        assert shared.consumption.energy == plain.consumption.energy
        assert shared.consumption.time == plain.consumption.time


class TestContentionFixedPoint:
    def test_effective_rates_reported(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        system, apps, bisections = make_system(4, channel=channel)
        result = generate_offloading_scheme(system, apps, bisections)
        assert result.contention_rounds >= 1
        assert set(result.effective_rates) == set(apps)
        for rate in result.effective_rates.values():
            assert 0.0 < rate <= PROFILE.bandwidth

    def test_aware_never_worse_than_blind_under_channel(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        for n_users in (2, 4, 6):
            plain_system, apps, bisections = make_system(n_users)
            aware_system, _, _ = make_system(n_users, channel=channel)
            blind = generate_offloading_scheme(plain_system, apps, bisections)
            aware = generate_offloading_scheme(aware_system, apps, bisections)
            blind_under_channel = aware_system.evaluate_placement(
                apps, blind.remote_parts
            )
            assert (
                aware.consumption.combined()
                <= blind_under_channel.combined() + 1e-9
            )

    def test_contention_can_change_the_placement(self):
        # On a starved channel, co-offloading everything is a bad deal;
        # the aware greedy must shed transmitters relative to blind.
        channel = SharedChannel(capacity=PROFILE.bandwidth / 8.0)
        plain_system, apps, bisections = make_system(6)
        aware_system, _, _ = make_system(6, channel=channel)
        blind = generate_offloading_scheme(plain_system, apps, bisections)
        aware = generate_offloading_scheme(aware_system, apps, bisections)
        blind_offloaders = sum(1 for p in blind.remote_parts.values() if p)
        aware_offloaders = sum(1 for p in aware.remote_parts.values() if p)
        assert aware_offloaders <= blind_offloaders

    def test_deterministic(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        first_system, apps, bisections = make_system(4, channel=channel)
        second_system, _, _ = make_system(4, channel=channel)
        first = generate_offloading_scheme(first_system, apps, bisections)
        second = generate_offloading_scheme(second_system, apps, bisections)
        assert first.remote_parts == second.remote_parts
        assert first.effective_rates == second.effective_rates


class TestBestResponseGame:
    def test_converges_and_is_deterministic(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        system, apps, bisections = make_system(4, channel=channel)
        first = best_response_equilibrium(system, apps, bisections, seed=3)
        second = best_response_equilibrium(system, apps, bisections, seed=3)
        assert first.converged
        assert first.remote_parts == second.remote_parts
        assert first.moves == second.moves
        assert first.rounds == second.rounds

    def test_equilibrium_has_no_profitable_deviation(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        system, apps, bisections = make_system(4, channel=channel)
        weights = ObjectiveWeights()
        result = best_response_equilibrium(
            system, apps, bisections, weights=weights, seed=0
        )
        assert result.converged
        consumption = system.evaluate_placement(apps, result.remote_parts)
        for uid in apps:
            here = consumption.per_user[uid]
            cost = weights.combine(here.energy, here.time)
            # Flip this user's binary strategy; nobody should gain.
            flipped = {u: set(p) for u, p in result.remote_parts.items()}
            if flipped.get(uid):
                flipped[uid] = set()
            else:
                flipped[uid] = solo_offload_set(
                    system, uid, apps, bisections, weights=weights
                )
            alt = system.evaluate_placement(apps, flipped).per_user[uid]
            assert cost <= weights.combine(alt.energy, alt.time) + 1e-9

    def test_solo_offload_set_matches_single_user_greedy(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        system, apps, bisections = make_system(3, channel=channel)
        solo = solo_offload_set(system, "u2", apps, bisections)
        lone_system, lone_apps, lone_bis = make_system(1, channel=channel)
        lone = generate_offloading_scheme(lone_system, lone_apps, lone_bis)
        # Identical device/app/channel: the solo strategy is the
        # single-user greedy's placement (modulo the user id).
        assert solo == lone.remote_parts.get("u1", set())


class TestPlannerSimulatorAgreement:
    def test_static_two_user_upload_times_agree(self):
        """Planner ``t_t = cut / b_i(2)`` == simulated upload finish.

        Two identical users offload the same parts on a shared channel
        the whole time (equal cuts, so neither finishes early and
        re-paces the other) — the planner's closed-form airtime and the
        discrete-event simulator must agree exactly.
        """
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        system, apps, _ = make_system(2, channel=channel)
        placement = {"u1": {0, 1}, "u2": {0, 1}}
        consumption = system.evaluate_placement(apps, placement)
        report = simulate_scheme(
            system,
            apps,
            placement,
            shared_uplink_capacity=channel.capacity,
        )
        for uid in apps:
            rate = consumption.effective_bandwidth[uid]
            assert rate == pytest.approx(PROFILE.bandwidth / 2.0)
            expected = apps[uid].cut_weight(placement[uid]) / rate
            assert report.timeline(uid).upload_finish == pytest.approx(expected)


class TestFleetChannelThreading:
    def test_channel_reaches_every_server_and_survives_eviction(self):
        channel = SharedChannel(capacity=PROFILE.bandwidth)
        fleet = EdgeFleet(2, 300.0, channel=channel)
        for server in fleet.servers.values():
            assert server.planner.channel is channel
        graph_a, _ = make_app("fa")
        graph_b, _ = make_app("fb")
        first = fleet.admit(MobileDevice("fa", profile=PROFILE), graph_a)
        fleet.admit(MobileDevice("fb", profile=PROFILE), graph_b)
        fleet.servers[first.server_id].evict("fa")
        for server in fleet.servers.values():
            assert server.planner.channel is channel


class TestContentionExperiment:
    def test_sweep_smoke(self):
        from repro.experiments.contention import ARMS, run_contention_experiment
        from repro.workloads.profiles import quick_profile

        profile = dataclasses.replace(quick_profile(), multiuser_graph_size=30)
        rows, curve = run_contention_experiment(
            profile=profile, user_counts=(1, 2), seed=1
        )
        assert {row.arm for row in rows} == set(ARMS)
        assert len(rows) == 2 * len(ARMS)
        assert [point.n_users for point in curve] == [1, 2]
        # The physics: doubling the co-offloading population on a
        # binding channel strictly raises per-user airtime.
        assert curve[1].transmission_time > curve[0].transmission_time
        for row in rows:
            if row.arm == "game":
                assert row.game_converged

    def test_cli_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "contention-bench",
                "--profile",
                "quick",
                "--users",
                "1",
                "2",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"curve"' in out
