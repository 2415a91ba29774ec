"""The local cluster: entry point of the mini-Spark substrate.

A :class:`LocalCluster` owns an executor, counts the tasks and stages it
runs (so tests and benches can assert that work really was distributed),
and hands out :class:`~repro.distributed.rdd.RDD` datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from repro.distributed.executor import SerialExecutor, TaskExecutor, ThreadedExecutor

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ClusterStats:
    """Counters describing the work a cluster has executed."""

    stages: int = 0
    tasks: int = 0

    def record_stage(self, task_count: int) -> None:
        """Account one stage of *task_count* tasks."""
        self.stages += 1
        self.tasks += task_count


class LocalCluster:
    """An in-process cluster with a fixed number of workers.

    >>> cluster = LocalCluster(workers=2)
    >>> cluster.parallelize(range(10), partitions=4).map(lambda x: x * x).reduce(lambda a, b: a + b)
    285
    >>> cluster.stats.stages >= 1
    True
    """

    def __init__(
        self,
        workers: int = 2,
        executor: TaskExecutor | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if executor is not None:
            self._executor = executor
        elif workers == 1:
            self._executor = SerialExecutor()
        else:
            self._executor = ThreadedExecutor(workers)
        self.stats = ClusterStats()

    def parallelize(self, data: Iterable[T], partitions: int | None = None) -> "RDD[T]":
        """Distribute *data* over the cluster as an RDD."""
        from repro.distributed.rdd import RDD

        items = list(data)
        n_partitions = partitions if partitions is not None else self.workers
        if n_partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {n_partitions}")
        return RDD.from_items(self, items, n_partitions)

    def run_stage(self, tasks: Sequence[Callable[[], R]]) -> list[R]:
        """Execute one stage of independent tasks; results keep order.

        The first task failure propagates and fails the stage.
        """
        self.stats.record_stage(len(tasks))
        return self._executor.run_all(tasks)

    def close(self) -> None:
        """Shut the cluster down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalCluster(workers={self.workers}, stages={self.stats.stages})"
