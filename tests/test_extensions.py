"""Tests for the extension features: RDD additions."""

import pytest

from repro.distributed.cluster import LocalCluster


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
