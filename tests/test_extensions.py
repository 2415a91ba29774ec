"""Tests for the extension features: queueing admission, RDD additions."""

import pytest

from repro.distributed.cluster import LocalCluster
from repro.mec.admission import QueueTheoreticAllocation
from repro.mec.devices import EdgeServer


class TestQueueTheoreticAllocation:
    server = EdgeServer(total_capacity=100.0)

    def test_light_load_little_waiting(self):
        policy = QueueTheoreticAllocation(horizon=10.0)
        allocation = policy.allocate(self.server, {"a": 10.0})
        # rho = 10 / 1000 = 0.01 -> waiting ~ 0.0101 * 0.1
        assert allocation.waiting_for("a") < 0.01
        assert allocation.capacity_for("a") == 100.0

    def test_waiting_grows_nonlinearly_with_load(self):
        policy = QueueTheoreticAllocation(horizon=1.0)
        light = policy.allocate(self.server, {"a": 20.0}).waiting_for("a")
        heavy = policy.allocate(self.server, {"a": 80.0}).waiting_for("a")
        # 4x the load must cost much more than 4x the waiting (convexity).
        assert heavy > 8.0 * light

    def test_saturation_clamped(self):
        policy = QueueTheoreticAllocation(horizon=1.0, max_utilisation=0.9)
        overload = policy.allocate(self.server, {"a": 500.0})
        assert overload.waiting_for("a") < float("inf")

    def test_idle_users_excluded(self):
        policy = QueueTheoreticAllocation()
        allocation = policy.allocate(self.server, {"a": 0.0, "b": 10.0})
        assert allocation.capacity_for("a") == 0.0
        assert allocation.waiting_for("b") > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QueueTheoreticAllocation(horizon=0.0)
        with pytest.raises(ValueError):
            QueueTheoreticAllocation(max_utilisation=1.0)

    def test_usable_by_planner(self, small_call_graph, device_profile):
        from repro.core import make_planner
        from repro.mec.devices import MobileDevice
        from repro.mec.system import MECSystem, UserContext

        device = MobileDevice("u1", profile=device_profile)
        system = MECSystem(
            EdgeServer(200.0),
            [UserContext(device, small_call_graph)],
            allocation=QueueTheoreticAllocation(horizon=5.0),
        )
        result = make_planner("spectral").plan_system(system, {"u1": small_call_graph})
        assert result.consumption.energy > 0.0


class TestRDDAdditions:
    def test_map_partitions(self):
        cluster = LocalCluster(workers=2)
        rdd = cluster.parallelize(range(10), partitions=2)
        sums = rdd.map_partitions(lambda part: [sum(part)]).collect()
        assert sums == [sum(range(5)), sum(range(5, 10))]

    def test_glom(self):
        cluster = LocalCluster(workers=2)
        parts = cluster.parallelize(range(6), partitions=3).glom().collect()
        assert parts == [[0, 1], [2, 3], [4, 5]]

    def test_take_stops_early(self):
        cluster = LocalCluster(workers=1)
        seen: list[int] = []

        def record(x):
            seen.append(x)
            return x

        rdd = cluster.parallelize(range(100), partitions=10).map(record)
        assert rdd.take(5) == [0, 1, 2, 3, 4]
        # Only the first partition ran.
        assert len(seen) == 10

    def test_take_more_than_available(self):
        cluster = LocalCluster(workers=1)
        assert cluster.parallelize([1, 2], partitions=1).take(10) == [1, 2]

    def test_take_negative_rejected(self):
        cluster = LocalCluster(workers=1)
        with pytest.raises(ValueError):
            cluster.parallelize([1], partitions=1).take(-1)

    def test_reduce_by_key(self):
        cluster = LocalCluster(workers=2)
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
        rdd = cluster.parallelize(pairs, partitions=3)
        assert rdd.reduce_by_key(lambda x, y: x + y) == {"a": 4, "b": 6, "c": 5}

    def test_map_partitions_composes_with_map(self):
        cluster = LocalCluster(workers=2)
        result = (
            cluster.parallelize(range(8), partitions=2)
            .map(lambda x: x + 1)
            .map_partitions(lambda part: [max(part)])
            .collect()
        )
        assert result == [4, 8]
