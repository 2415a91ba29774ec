"""Tests for the MEC energy/time formulas, devices and admission."""

import pytest

from repro.mec.admission import (
    EqualShareAllocation,
    FCFSQueueAllocation,
    ProportionalShareAllocation,
)
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.energy import (
    ConsumptionBreakdown,
    local_compute_time,
    local_energy,
    remote_compute_time,
    transmission_energy,
    transmission_time,
)
from repro.mec.objective import ObjectiveWeights


class TestFormulas:
    def test_formula1_local_time(self):
        assert local_compute_time(100.0, 20.0) == 5.0
        assert local_compute_time(0.0, 20.0) == 0.0

    def test_formula2_remote_time(self):
        assert remote_compute_time(100.0, 50.0, waiting=2.0) == 4.0
        # Zero remote load short-circuits regardless of allocation.
        assert remote_compute_time(0.0, 0.0, waiting=5.0) == 0.0

    def test_formula2_requires_capacity_when_loaded(self):
        with pytest.raises(ValueError):
            remote_compute_time(10.0, 0.0, waiting=0.0)

    def test_formula3_local_energy(self):
        assert local_energy(5.0, 0.5) == 2.5

    def test_formula4_transmission_energy(self):
        # e_t = cut * p_t / b
        assert transmission_energy(100.0, 6.0, 50.0) == 12.0

    def test_formula5_transmission_time(self):
        assert transmission_time(100.0, 50.0) == 2.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            local_compute_time(-1.0, 10.0)
        with pytest.raises(ValueError):
            transmission_energy(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            local_energy(1.0, 0.0)

    def test_breakdown_totals(self):
        b = ConsumptionBreakdown(
            local_energy=2.0,
            transmission_energy=3.0,
            local_time=1.0,
            remote_time=4.0,
            transmission_time=0.5,
            waiting_time=1.5,
        )
        assert b.energy == 5.0
        assert b.time == 5.5
        assert b.combined() == 10.5
        assert b.combined(energy_weight=2.0, time_weight=0.0) == 10.0

    def test_breakdown_addition(self):
        a = ConsumptionBreakdown(1, 1, 1, 1, 1, 1)
        b = ConsumptionBreakdown(2, 2, 2, 2, 2, 2)
        total = a + b
        assert total.energy == 6.0
        assert total.waiting_time == 3.0


class TestDevices:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(compute_capacity=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(bandwidth=-1.0)

    def test_device_delegates_profile(self):
        profile = DeviceProfile(compute_capacity=42.0)
        device = MobileDevice("u1", profile=profile)
        assert device.compute_capacity == 42.0
        assert device.device_id == "u1"

    def test_server_validation(self):
        with pytest.raises(ValueError):
            EdgeServer(total_capacity=0.0)


class TestAllocation:
    server = EdgeServer(total_capacity=100.0)

    def test_equal_share(self):
        allocation = EqualShareAllocation().allocate(
            self.server, {"a": 10.0, "b": 20.0, "c": 0.0}
        )
        assert allocation.capacity_for("a") == 50.0
        assert allocation.capacity_for("b") == 50.0
        assert allocation.capacity_for("c") == 0.0
        assert allocation.waiting_for("a") == 0.0

    def test_equal_share_no_active_users(self):
        allocation = EqualShareAllocation().allocate(self.server, {"a": 0.0})
        assert allocation.capacity == {}

    def test_proportional_share(self):
        allocation = ProportionalShareAllocation().allocate(
            self.server, {"a": 10.0, "b": 30.0}
        )
        assert allocation.capacity_for("a") == pytest.approx(25.0)
        assert allocation.capacity_for("b") == pytest.approx(75.0)
        # Processor sharing: both finish at the same time total/capacity.
        assert 10.0 / 25.0 == pytest.approx(30.0 / 75.0)

    def test_fcfs_waiting_accumulates(self):
        allocation = FCFSQueueAllocation().allocate(
            self.server, {"u1": 50.0, "u2": 30.0, "u3": 20.0}
        )
        assert allocation.waiting_for("u1") == 0.0
        assert allocation.waiting_for("u2") == pytest.approx(0.5)
        assert allocation.waiting_for("u3") == pytest.approx(0.8)
        assert allocation.capacity_for("u3") == 100.0

    def test_fcfs_skips_idle_users(self):
        allocation = FCFSQueueAllocation().allocate(
            self.server, {"u1": 0.0, "u2": 30.0}
        )
        assert allocation.waiting_for("u2") == 0.0
        assert allocation.capacity_for("u1") == 0.0

    def test_fcfs_order_is_by_user_id(self):
        allocation = FCFSQueueAllocation().allocate(
            self.server, {"z": 10.0, "a": 40.0}
        )
        # "a" sorts first, so "z" waits behind a's 40 units.
        assert allocation.waiting_for("a") == 0.0
        assert allocation.waiting_for("z") == pytest.approx(0.4)


class TestObjective:
    def test_default_is_unweighted_sum(self):
        assert ObjectiveWeights().combine(3.0, 4.0) == 7.0

    def test_weighted(self):
        assert ObjectiveWeights(energy=2.0, time=0.5).combine(3.0, 4.0) == 8.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(energy=0.0, time=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(energy=-1.0)
