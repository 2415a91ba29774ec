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
    retries: int = 0

    def record_stage(self, task_count: int) -> None:
        """Account one stage of *task_count* tasks."""
        self.stages += 1
        self.tasks += task_count

    def record_retry(self) -> None:
        """Account one re-executed task."""
        self.retries += 1


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
        max_task_retries: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries}")
        self.workers = workers
        self.max_task_retries = max_task_retries
        """Spark-style task fault tolerance: a task raising an exception is
        re-executed up to this many times (tasks must therefore be pure,
        exactly like RDD lambdas); 0 disables retries and the first
        failure propagates."""
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

        With ``max_task_retries > 0`` each failing task is wrapped and
        retried individually; after the budget is exhausted the last
        exception propagates (the stage fails, like a Spark job abort).
        """
        self.stats.record_stage(len(tasks))
        if self.max_task_retries == 0:
            return self._executor.run_all(tasks)
        return self._executor.run_all([self._with_retries(task) for task in tasks])

    def _with_retries(self, task: Callable[[], R]) -> Callable[[], R]:
        def resilient() -> R:
            attempts = 0
            while True:
                try:
                    return task()
                # Broad by contract: stage tasks are pure closures over
                # immutable partitions, so *any* failure is retryable and
                # must be counted against the retry budget (Spark task
                # fault-tolerance semantics).  Exhausting the budget
                # re-raises the last exception and aborts the stage.
                except Exception:
                    attempts += 1
                    if attempts > self.max_task_retries:
                        raise
                    self.stats.record_retry()

        return resilient

    def close(self) -> None:
        """Shut the cluster down (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LocalCluster(workers={self.workers}, stages={self.stats.stages})"
