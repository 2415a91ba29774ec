"""Pluggable planning execution backend: in-thread or warm process pool.

Planning is pure Python, so :class:`~repro.service.server.PlanService`'s
thread pool only buys isolation and batching — the GIL serialises the
actual planning work.  ``PlanningBackend`` abstracts *where* a plan is
computed:

* ``"thread"`` — plan inline on the calling worker thread (the original
  behaviour; zero overhead, GIL-bound throughput);
* ``"process"`` — ship requests to a persistent ``multiprocessing`` pool
  so planning scales with cores.  Cut strategies are closures and do not
  pickle, so worker processes rebuild their own planner from the
  registry name via :func:`repro.core.baselines.make_planner` (pool
  initializer).

The process path is built to amortise IPC instead of paying it per plan:

* graphs travel through :class:`~repro.service.shm.SharedGraphStore` —
  shared-memory segments keyed by content fingerprint, with worker-side
  decode caching, so a repeated graph crosses the boundary as a ~100
  byte :class:`~repro.service.shm.GraphRef` instead of a pickled dict
  walk (inline pickle-5 blobs are the fallback when shared memory is
  unavailable or a segment was evicted);
* batches go through a sequence-numbered ``imap_unordered`` pipeline
  with a computed chunksize, so one IPC round-trip carries many plans
  and results realign positionally on the way back;
* workers return ``(seq, status, payload)`` instead of raising: a
  ``"miss"`` (evicted segment) is retried with an inline payload, an
  ``"error"`` re-raises in the caller — the pipeline itself never dies
  mid-batch.

Planning is deterministic, so thread and process modes return identical
plans for identical requests (asserted by the parity tests).

Shutdown discipline: :meth:`PlanningBackend.close` *drains* — it lets
every submitted task finish (``Pool.close()`` + ``join()``) before
freeing shared memory, so in-flight batches survive a close issued from
another thread.  :meth:`terminate` is the abandon-ship teardown for
error paths and is what the context manager uses when exiting on an
exception.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.pool
import pickle
from multiprocessing import resource_tracker
from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.callgraph.model import FunctionCallGraph
from repro.core.config import PlannerConfig
from repro.core.results import UserPlan
from repro.service.shm import (
    DEFAULT_STORE_CAPACITY,
    GraphRef,
    SegmentLostError,
    SharedGraphStore,
    resolve_ref,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.planner import OffloadingPlanner

EXECUTOR_MODES = ("thread", "process")

_DECODE_CACHE_CAPACITY = 64
"""Decoded graphs kept per worker process, LRU by content fingerprint."""

_MAX_CHUNKSIZE = 32
"""Upper bound on tasks per pool chunk: beyond this, latency of the
slowest chunk dominates and stragglers starve the realignment loop."""

_WORKER_PLANNER: "OffloadingPlanner | None" = None
"""Per-worker-process planner, rebuilt by :func:`_initialize_worker`."""

_WORKER_UNTRACK = False
"""Whether this worker must unregister attached segments (spawn only)."""

_WORKER_GRAPHS: "OrderedDict[str, FunctionCallGraph]" = OrderedDict()
"""Per-worker LRU of decoded graphs: repeated refs decode once."""


def _initialize_worker(
    strategy_name: str,
    config: PlannerConfig | None,
    untrack: bool = False,
) -> None:
    """Pool initializer: rebuild the planner inside the worker process."""
    global _WORKER_PLANNER, _WORKER_UNTRACK
    from repro.core.baselines import make_planner

    _WORKER_PLANNER = make_planner(strategy_name, config)
    _WORKER_UNTRACK = untrack
    _WORKER_GRAPHS.clear()


def _cached_graph(ref: GraphRef) -> FunctionCallGraph:
    """Resolve *ref* through the worker's decode LRU."""
    graph = _WORKER_GRAPHS.get(ref.key)
    if graph is not None:
        _WORKER_GRAPHS.move_to_end(ref.key)
        return graph
    graph = resolve_ref(ref, untrack=_WORKER_UNTRACK)
    _WORKER_GRAPHS[ref.key] = graph
    while len(_WORKER_GRAPHS) > _DECODE_CACHE_CAPACITY:
        _WORKER_GRAPHS.popitem(last=False)
    return graph


def _encode_error(exc: Exception) -> Exception:
    """Make *exc* safe to ship back through the result pipe."""
    try:
        pickle.dumps(exc)
    except Exception:
        # Unpicklable exceptions (closures in args, live handles) would
        # kill the pool's result handler; a flattened summary records
        # the error and travels safely instead.
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _plan_task(task: tuple[int, GraphRef]) -> tuple[int, str, object]:
    """Run one sequenced plan request on the worker's rebuilt planner.

    Returns ``(seq, status, payload)`` with status ``"ok"`` (payload is
    the :class:`UserPlan`), ``"miss"`` (segment evicted before this task
    ran; payload is the graph key — the parent retries inline), or
    ``"error"`` (payload is the exception).  Raising inside a mapped
    task would poison the whole ``imap_unordered`` iteration; statuses
    keep the other plans in the batch alive.
    """
    seq, ref = task
    if _WORKER_PLANNER is None:  # pragma: no cover - initializer always ran
        return (seq, "error", RuntimeError("worker process has no planner"))
    try:
        graph = _cached_graph(ref)
        return (seq, "ok", _WORKER_PLANNER.plan_user(graph))
    except SegmentLostError:
        return (seq, "miss", ref.key)
    except Exception as exc:
        # Worker tasks must never raise (see docstring); every failure
        # is encoded and re-raised by the submitting side.
        return (seq, "error", _encode_error(exc))


def process_pool_supported(strategy_name: str) -> bool:
    """Whether *strategy_name* can be rebuilt inside a worker process.

    Only registry strategies qualify; ``"spectral-spark"`` (needs a live
    cluster) and ad-hoc strategies (arbitrary closures) cannot cross the
    process boundary.
    """
    from repro.core.baselines import _STRATEGY_BUILDERS

    return strategy_name in _STRATEGY_BUILDERS


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, shares the warm interpreter), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


def _chunksize(tasks: int, workers: int) -> int:
    """Tasks per pool chunk: ~4 chunks per worker, bounded both ways.

    Small batches keep chunk=1 (parallelism beats amortisation); large
    batches grow chunks so the per-task IPC cost is shared, capped at
    :data:`_MAX_CHUNKSIZE` so one slow chunk cannot stall realignment.
    """
    if tasks <= 0:
        return 1
    return max(1, min(_MAX_CHUNKSIZE, math.ceil(tasks / (max(1, workers) * 4))))


class PlanningBackend:
    """Executes ``plan_user`` calls in-thread or on a warm process pool.

    Use as a context manager or call :meth:`start`/:meth:`close`.  All
    methods are safe to call from multiple threads — concurrent batch
    submissions interleave their chunks across the pool's workers.
    """

    def __init__(
        self,
        executor: str = "thread",
        strategy_name: str = "spectral",
        config: PlannerConfig | None = None,
        processes: int | None = None,
        maxtasksperchild: int | None = None,
        store_capacity: int = DEFAULT_STORE_CAPACITY,
    ) -> None:
        if executor not in EXECUTOR_MODES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_MODES}"
            )
        if executor == "process" and not process_pool_supported(strategy_name):
            raise ValueError(
                f"strategy {strategy_name!r} cannot run on a process pool: "
                "worker processes rebuild planners from the strategy registry, "
                "and this strategy is not registered there"
            )
        self.executor = executor
        self.strategy_name = strategy_name
        self.config = config
        self.processes = processes
        self.maxtasksperchild = maxtasksperchild
        self.store_capacity = store_capacity
        self._pool: multiprocessing.pool.Pool | None = None
        self._store: SharedGraphStore | None = None
        self._pool_workers = 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PlanningBackend":
        """Launch the process pool (no-op for the thread executor)."""
        if self.executor == "process" and self._pool is None:
            context = _pool_context()
            untrack = getattr(context, "_name", "fork") != "fork"
            if not untrack:
                # Fork workers inherit the parent's resource tracker only
                # if it is already running at fork time.  Otherwise each
                # worker spawns a private tracker on its first segment
                # attach, and that tracker replays unlink for segments the
                # parent has since removed — warning at worker exit.
                resource_tracker.ensure_running()
            self._store = SharedGraphStore(capacity=self.store_capacity)
            self._pool = context.Pool(
                processes=self.processes,
                initializer=_initialize_worker,
                initargs=(self.strategy_name, self.config, untrack),
                maxtasksperchild=self.maxtasksperchild,
            )
            self._pool_workers = self.processes or multiprocessing.cpu_count()
        return self

    def close(self) -> None:
        """Drain and tear down: in-flight work finishes first; idempotent.

        ``Pool.close()`` stops intake, ``join()`` waits for every
        submitted task — a batch racing with close still gets its
        results.  Only then is the shared-memory store unlinked (workers
        may be attaching segments right up to the join).
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()
        self._close_store()

    def terminate(self) -> None:
        """Abandon-ship teardown: kill workers, drop in-flight plans.

        For error and timeout paths only — the happy path must use
        :meth:`close`, which drains.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
        self._close_store()

    def _close_store(self) -> None:
        store, self._store = self._store, None
        if store is not None:
            store.close()

    def __enter__(self) -> "PlanningBackend":
        return self.start()

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pooled(self) -> bool:
        """Whether a live process pool is serving requests."""
        return self._pool is not None

    @property
    def store(self) -> SharedGraphStore | None:
        """The live shared-memory store (``None`` for thread mode)."""
        return self._store

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, planner: "OffloadingPlanner", graph: FunctionCallGraph) -> UserPlan:
        """Plan one graph; worker exceptions re-raise in the caller."""
        if self._pool is None:
            return planner.plan_user(graph)
        plan, error = self._settle_batch([graph])[0]
        if error is not None:
            raise error
        assert plan is not None
        return plan

    def plan_many(
        self, planner: "OffloadingPlanner", graphs: Sequence[FunctionCallGraph]
    ) -> list[UserPlan]:
        """Plan a batch, preserving order; first failure (by position) raises.

        With a live pool *every* batch — including single-graph ones —
        goes through the pipeline, so batch and single submissions have
        identical executor semantics.  The thread executor plans
        sequentially (parallel threads would only contend on the GIL).
        """
        if self._pool is None or not graphs:
            return [planner.plan_user(graph) for graph in graphs]
        plans: list[UserPlan] = []
        for plan, error in self._settle_batch(graphs):
            if error is not None:
                raise error
            assert plan is not None
            plans.append(plan)
        return plans

    def plan_many_settled(
        self, planner: "OffloadingPlanner", graphs: Sequence[FunctionCallGraph]
    ) -> list[tuple[UserPlan | None, Exception | None]]:
        """Plan a batch, returning per-position ``(plan, error)`` pairs.

        The serving layer's entry point: one failing graph must not take
        the rest of its batch down with it.
        """
        if self._pool is None:
            settled: list[tuple[UserPlan | None, Exception | None]] = []
            for graph in graphs:
                try:
                    settled.append((planner.plan_user(graph), None))
                except Exception as exc:
                    # Contract of *_settled*: per-item failures are part
                    # of the return value, recorded for the caller to
                    # count and surface — never silently dropped.
                    settled.append((None, _encode_error(exc)))
            return settled
        return self._settle_batch(graphs)

    def _settle_batch(
        self, graphs: Sequence[FunctionCallGraph]
    ) -> list[tuple[UserPlan | None, Exception | None]]:
        """Publish, pipeline, realign, retry misses — the batched core."""
        pool = self._pool
        store = self._store
        assert pool is not None and store is not None
        tasks = [(seq, store.publish(graph)) for seq, graph in enumerate(graphs)]
        outcomes: list[tuple[str, object] | None] = [None] * len(tasks)
        for seq, status, payload in pool.imap_unordered(
            _plan_task, tasks, chunksize=_chunksize(len(tasks), self._pool_workers)
        ):
            outcomes[seq] = (status, payload)
        for seq, outcome in enumerate(outcomes):
            if outcome is not None and outcome[0] == "miss":
                # The segment was evicted between publish and execution;
                # an inline payload cannot go missing.
                retry = (seq, store.inline_ref(graphs[seq]))
                _, status, payload = pool.apply(_plan_task, (retry,))
                outcomes[seq] = (status, payload)
        settled: list[tuple[UserPlan | None, Exception | None]] = []
        for seq, outcome in enumerate(outcomes):
            if outcome is None:  # pragma: no cover - imap yields every seq
                settled.append((None, RuntimeError(f"no result for task {seq}")))
                continue
            status, payload = outcome
            if status == "ok" and isinstance(payload, UserPlan):
                settled.append((payload, None))
            elif isinstance(payload, Exception):
                settled.append((None, payload))
            else:  # pragma: no cover - defensive against protocol drift
                settled.append(
                    (None, RuntimeError(f"unexpected worker outcome {status!r}"))
                )
        return settled


__all__ = [
    "EXECUTOR_MODES",
    "PlanningBackend",
    "process_pool_supported",
]
