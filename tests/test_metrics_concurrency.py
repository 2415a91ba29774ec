"""Thread-safety hammers for the service metrics.

Every test drives real threads through a shared object and asserts an
*exact* expected total afterwards — a lost update (the classic
read-modify-write race these locks exist to prevent) shows up as an
off-by-N, not a flake.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry

THREADS = 8
ITERATIONS = 2_000


def _hammer(worker, threads: int = THREADS) -> None:
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, index) for index in range(threads)]
        for future in futures:
            future.result()


class TestCounter:
    def test_concurrent_increments_sum_exactly(self):
        counter = Counter("hits")

        def worker(_index: int) -> None:
            for _ in range(ITERATIONS):
                counter.inc()

        _hammer(worker)
        assert counter.value == THREADS * ITERATIONS

    def test_concurrent_weighted_increments_sum_exactly(self):
        counter = Counter("bytes")

        def worker(index: int) -> None:
            for _ in range(ITERATIONS):
                counter.inc(index + 1)

        _hammer(worker)
        expected = ITERATIONS * sum(range(1, THREADS + 1))
        assert counter.value == expected

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)


class TestGauge:
    def test_concurrent_deltas_cancel_exactly(self):
        gauge = Gauge("depth")

        def worker(_index: int) -> None:
            for _ in range(ITERATIONS):
                gauge.add(1.0)
                gauge.add(-1.0)

        _hammer(worker)
        assert gauge.value == 0.0


class TestHistogram:
    def test_concurrent_observations_exact_count_and_total(self):
        histogram = Histogram("latency", window=64)

        def worker(_index: int) -> None:
            for _ in range(ITERATIONS):
                histogram.observe(2.0)

        _hammer(worker)
        assert histogram.count == THREADS * ITERATIONS
        # mean is exact (total/count), not windowed: identical samples
        # make any interleaving give exactly 2.0 unless an update is lost.
        assert histogram.mean == 2.0

    def test_window_bounds_samples_but_not_count(self):
        histogram = Histogram("latency", window=16)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        # Percentiles only see the most recent 16 samples.
        assert histogram.percentile(0.0) == 84.0
        assert histogram.percentile(1.0) == 99.0


class TestMetricsRegistry:
    def test_get_or_create_returns_one_instance_under_contention(self):
        registry = MetricsRegistry()
        seen: list[Counter] = []

        def worker(_index: int) -> None:
            counter = registry.counter("shared")
            seen.append(counter)
            for _ in range(ITERATIONS):
                counter.inc()

        _hammer(worker)
        assert len({id(counter) for counter in seen}) == 1
        assert registry.counter("shared").value == THREADS * ITERATIONS

    def test_concurrent_mixed_metric_creation(self):
        registry = MetricsRegistry()

        def worker(index: int) -> None:
            for i in range(200):
                registry.counter(f"c{i % 10}").inc()
                registry.gauge(f"g{i % 10}").set(float(index))
                registry.histogram(f"h{i % 10}").observe(1.0)

        _hammer(worker)
        snap = registry.snapshot()
        assert len(snap["counters"]) == 10
        assert len(snap["gauges"]) == 10
        assert len(snap["histograms"]) == 10
        assert sum(snap["counters"].values()) == THREADS * 200
        assert sum(s["count"] for s in snap["histograms"].values()) == THREADS * 200
