"""Tests for online user admission and the online/offline regret."""

import dataclasses

import pytest

from repro.core.baselines import spectral_cut_strategy
from repro.core.planner import OffloadingPlanner
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.online import OnlinePlanner, regret_vs_offline
from repro.mec.scheme import PartitionedApplication
from repro.workloads.applications import synthesize_application

PROFILE = DeviceProfile(
    compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0
)


def arrivals(n: int, base_seed: int = 61):
    out = []
    for k in range(n):
        device = MobileDevice(f"u{k+1:02d}", profile=PROFILE)
        app = synthesize_application(f"app-{k}", n_functions=50, seed=base_seed + k)
        out.append((device, app))
    return out


class TestOnlinePlanner:
    def test_admissions_accumulate(self):
        planner = OnlinePlanner(EdgeServer(600.0), spectral_cut_strategy())
        records = [planner.admit(device, app) for device, app in arrivals(3)]
        assert all(record.consumption_after.energy > 0.0 for record in records)
        assert [record.user_id for record in records] == list(planner.users)
        assert planner.current_consumption() is records[-1].consumption_after

    def test_duplicate_admission_rejected(self):
        planner = OnlinePlanner(EdgeServer(600.0), spectral_cut_strategy())
        device, app = arrivals(1)[0]
        planner.admit(device, app)
        with pytest.raises(ValueError, match="already admitted"):
            planner.admit(device, app)

    def test_existing_placements_never_migrate(self):
        planner = OnlinePlanner(EdgeServer(600.0), spectral_cut_strategy())
        batch = arrivals(3)
        placements: dict[str, set[int]] = {}
        for device, app in batch:
            planner.admit(device, app)
            # Every previously admitted user's placement is unchanged.
            for uid, parts in placements.items():
                assert planner.users[uid].remote == parts
            placements = {uid: set(user.remote) for uid, user in planner.users.items()}

    def test_consumption_query_without_users(self):
        planner = OnlinePlanner(EdgeServer(600.0), spectral_cut_strategy())
        with pytest.raises(ValueError, match="no users"):
            planner.current_consumption()

    def test_later_users_see_server_load(self):
        """A starved server makes later newcomers offload less."""
        generous = OnlinePlanner(EdgeServer(10_000.0), spectral_cut_strategy())
        starved = OnlinePlanner(EdgeServer(30.0), spectral_cut_strategy())
        batch = arrivals(4)
        for device, app in batch:
            generous_last = generous.admit(
                MobileDevice(device.device_id, profile=PROFILE), app
            )
            starved_last = starved.admit(MobileDevice(device.device_id, profile=PROFILE), app)
        last = batch[-1][0].device_id
        assert starved_last.offloaded_functions <= generous_last.offloaded_functions
        assert generous_last.user_id == last

    def test_place_changes_nothing_and_admission_commits_its_result(self):
        planner = OnlinePlanner(EdgeServer(300.0), spectral_cut_strategy())
        *first, (device, app) = arrivals(3)
        for earlier, graph in first:
            planner.admit(earlier, graph)
        before = {uid: set(user.remote) for uid, user in planner.users.items()}
        kept = planner.current_consumption()
        plan = OffloadingPlanner(spectral_cut_strategy()).plan_user(app)
        partitioned = PartitionedApplication(device.device_id, app, plan.parts)
        placed = planner.place(device, partitioned, plan)
        assert {uid: user.remote for uid, user in planner.users.items()} == before
        # The frozen users' parts are not walked for the scheme either.
        assert set(placed.scheme.remote_functions) == {device.device_id}
        assert planner.current_consumption() is kept
        record = planner.admit_partitioned(device, partitioned, plan)
        assert record.consumption_after == placed.consumption
        assert planner.users[device.device_id].remote == placed.remote_parts[device.device_id]

    def test_ledger_entries_cannot_be_edited(self):
        """A ledger entry's remote set and its weights are made together
        at commit; neither can be changed afterwards, so they agree."""
        planner = OnlinePlanner(EdgeServer(300.0), spectral_cut_strategy())
        for device, graph in arrivals(3):
            planner.admit(device, graph)
        for user in planner.users.values():
            assert user.weights == user.app.weights(user.remote)
            with pytest.raises(dataclasses.FrozenInstanceError):
                user.remote = frozenset()  # type: ignore[misc]
            with pytest.raises(AttributeError):
                user.remote.add(0)  # type: ignore[attr-defined]

    def test_evict_places_the_survivors_as_a_fresh_planner_would(self):
        """Evicting re-places the survivors in admission order: the ledger
        equals a new planner's that admitted only them, with their plans."""
        server = EdgeServer(300.0)
        planner = OnlinePlanner(server, spectral_cut_strategy())
        for device, app in arrivals(4):
            planner.admit(device, app)
        evicted = planner.evict("u02")
        assert evicted.user_id == "u02" and "u02" not in planner.users
        fresh = OnlinePlanner(server, spectral_cut_strategy())
        for user in planner.users.values():
            fresh.admit(user.device, user.graph, plan=user.plan)
        assert list(planner.users) == ["u01", "u03", "u04"]
        assert {uid: u.remote for uid, u in planner.users.items()} == {
            uid: u.remote for uid, u in fresh.users.items()
        }
        assert planner.current_consumption() == fresh.current_consumption()
        with pytest.raises(KeyError, match="not admitted"):
            planner.evict("u02")
        assert [user.user_id for user in planner.clear()] == ["u01", "u03", "u04"]
        assert not planner.users
        with pytest.raises(ValueError, match="no users"):
            planner.current_consumption()


class TestRegret:
    def test_offline_never_worse(self):
        rows = regret_vs_offline(
            EdgeServer(400.0), spectral_cut_strategy(), arrivals(3)
        )
        assert len(rows) == 3
        for user_id, online_cost, offline_cost in rows:
            # Offline replans everything, so it can only match or beat the
            # frozen online placements (up to greedy tie noise).
            assert offline_cost <= online_cost * 1.02, user_id

    def test_first_arrival_has_no_regret(self):
        """With one user the two planners solve the identical problem."""
        rows = regret_vs_offline(
            EdgeServer(400.0), spectral_cut_strategy(), arrivals(1)
        )
        _, online_cost, offline_cost = rows[0]
        assert online_cost == pytest.approx(offline_cost, rel=1e-9)

    def test_costs_grow_with_arrivals(self):
        rows = regret_vs_offline(
            EdgeServer(400.0), spectral_cut_strategy(), arrivals(3)
        )
        online_costs = [r[1] for r in rows]
        assert online_costs == sorted(online_costs)
