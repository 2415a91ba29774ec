"""Runtime lock sanitizer: observed-order deadlock detection for tests.

Static lock-order analysis (``lockorder/cycle``) sees the code; the
sanitizer sees the *execution*.  :meth:`LockSanitizer.install` replaces
``threading.Lock`` / ``threading.RLock`` with instrumented factories, so
every lock created afterwards — including the ones ``queue.Queue`` and
``threading.Condition`` build internally — records, per thread, the
stack of locks held at each acquisition:

* **lock-order inversion**: thread 1 was ever seen holding ``A`` while
  acquiring ``B``, and any thread was ever seen holding ``B`` while
  acquiring ``A``.  The two orders need not overlap in time — that is
  the point: the schedule that interleaves them deadlocks, even if this
  run got lucky.  Inversions are the gating signal (CI fails on any).
* **hold-budget overrun**: a lock held longer than the budget
  (default 1s).  Informational — long holds are a throughput smell, not
  a proven bug — and capped to keep reports bounded.

Condition variables are first-class: the wrapper implements the
``_release_save`` / ``_acquire_restore`` / ``_is_owned`` protocol that
``threading.Condition`` looks for, and resets hold timing across a
``wait()`` so a blocked consumer is not reported as a long hold.

Install per process (``REPRO_LOCK_SANITIZER=1`` + the conftest hook, or
:func:`install_from_env` in a harness).  Locks created *before* install
are invisible — install early.  The sanitizer's own state is guarded by
a raw ``_thread`` lock so instrumentation never recurses into itself.
"""

from __future__ import annotations

import _thread
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any

_MAX_LONG_HOLDS = 100

_ENV_FLAG = "REPRO_LOCK_SANITIZER"
_ENV_REPORT = "REPRO_LOCK_SANITIZER_REPORT"


@dataclass(frozen=True)
class OrderWitness:
    """One observed ``outer held -> inner acquired`` event."""

    outer: str
    inner: str
    thread: str


@dataclass(frozen=True)
class Inversion:
    """Two witnesses proving both acquisition orders of a lock pair."""

    first: OrderWitness
    second: OrderWitness

    def to_dict(self) -> dict[str, Any]:
        return {
            "first": vars(self.first),
            "second": vars(self.second),
        }


@dataclass(frozen=True)
class LongHold:
    """One hold that exceeded the budget."""

    lock: str
    seconds: float
    thread: str

    def to_dict(self) -> dict[str, Any]:
        return {"lock": self.lock, "seconds": self.seconds, "thread": self.thread}


@dataclass
class _HeldEntry:
    serial: int
    label: str
    acquired_at: float
    depth: int = 1


class LockSanitizer:
    """Instrumented ``threading`` lock factories with order tracking."""

    def __init__(self, hold_budget_seconds: float = 1.0) -> None:
        self.hold_budget_seconds = hold_budget_seconds
        self.inversions: list[Inversion] = []
        self.long_holds: list[LongHold] = []
        self._state_lock = _thread.allocate_lock()
        self._held = threading.local()
        self._serial = 0
        self._orders: dict[tuple[int, int], OrderWitness] = {}
        self._reported: set[frozenset[int]] = set()
        self._installed = False
        self._original_lock: Any = None
        self._original_rlock: Any = None

    # ------------------------------------------------------------------
    # Factory patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch ``threading.Lock``/``threading.RLock`` (idempotent)."""
        if self._installed:
            return
        self._original_lock = threading.Lock
        self._original_rlock = threading.RLock
        sanitizer = self

        def make_lock() -> "_SanitizedLock":
            return _SanitizedLock(sanitizer, sanitizer._original_lock())

        def make_rlock() -> "_SanitizedLock":
            return _SanitizedLock(sanitizer, sanitizer._original_rlock())

        threading.Lock = make_lock  # type: ignore[assignment]
        threading.RLock = make_rlock  # type: ignore[assignment]
        self._installed = True

    def uninstall(self) -> None:
        """Restore the original factories (existing wrappers keep working)."""
        if not self._installed:
            return
        threading.Lock = self._original_lock
        threading.RLock = self._original_rlock
        self._installed = False

    # ------------------------------------------------------------------
    # Event recording (called from the wrappers)
    # ------------------------------------------------------------------
    def next_serial(self) -> int:
        with self._state_lock:
            self._serial += 1
            return self._serial

    def _stack(self) -> list[_HeldEntry]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def on_acquired(self, serial: int, label: str) -> None:
        stack = self._stack()
        for entry in stack:
            if entry.serial == serial:
                entry.depth += 1
                return
        thread_name = _thread_label()
        with self._state_lock:
            for outer in stack:
                if outer.serial == serial:
                    continue
                pair = (outer.serial, serial)
                if pair not in self._orders:
                    self._orders[pair] = OrderWitness(
                        outer=outer.label, inner=label, thread=thread_name
                    )
                reverse = self._orders.get((serial, outer.serial))
                key = frozenset(pair)
                if reverse is not None and key not in self._reported:
                    self._reported.add(key)
                    self.inversions.append(
                        Inversion(first=reverse, second=self._orders[pair])
                    )
        stack.append(_HeldEntry(serial=serial, label=label, acquired_at=time.monotonic()))

    def on_released(self, serial: int) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            entry = stack[position]
            if entry.serial != serial:
                continue
            entry.depth -= 1
            if entry.depth == 0:
                del stack[position]
                held_for = time.monotonic() - entry.acquired_at
                if held_for > self.hold_budget_seconds:
                    with self._state_lock:
                        if len(self.long_holds) < _MAX_LONG_HOLDS:
                            self.long_holds.append(
                                LongHold(
                                    lock=entry.label,
                                    seconds=round(held_for, 3),
                                    thread=_thread_label(),
                                )
                            )
            return
        # Released on a thread that never recorded the acquire (bare
        # Lock handed across threads): nothing to unwind.

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.inversions

    def report(self) -> dict[str, Any]:
        """Machine-readable result (the CI artifact schema)."""
        with self._state_lock:
            return {
                "version": 1,
                "hold_budget_seconds": self.hold_budget_seconds,
                "orders_observed": len(self._orders),
                "inversions": [inversion.to_dict() for inversion in self.inversions],
                "long_holds": [hold.to_dict() for hold in self.long_holds],
            }

    def write_report(self, path: Path) -> None:
        path.write_text(json.dumps(self.report(), indent=2) + "\n", encoding="utf-8")


class _SanitizedLock:
    """Wrapper around a real lock that reports to the sanitizer.

    Implements the full lock protocol plus the private hooks
    ``threading.Condition`` binds when present.
    """

    def __init__(self, sanitizer: LockSanitizer, inner: Any) -> None:
        self._sanitizer = sanitizer
        self._inner = inner
        self._serial = sanitizer.next_serial()
        self._label = _creation_site(self._serial)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer.on_acquired(self._serial, self._label)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._sanitizer.on_released(self._serial)

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<sanitized {self._inner!r} at {self._label}>"

    # -- threading.Condition protocol ----------------------------------
    def _release_save(self) -> Any:
        # Condition.wait: drop the lock (and our hold tracking) while
        # the thread sleeps; a blocked waiter is not "holding" anything.
        self._sanitizer.on_released(self._serial)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        # Fresh hold timing: the wait itself must not count against the
        # hold budget.
        self._sanitizer.on_acquired(self._serial, self._label)

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return bool(self._inner._is_owned())
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _recursion_count(self) -> int:
        # multiprocessing.resource_tracker introspects its RLock with
        # this (3.11+); fall back to our own per-thread depth when the
        # inner lock predates the API.
        if hasattr(self._inner, "_recursion_count"):
            return int(self._inner._recursion_count())
        for entry in self._sanitizer._stack():
            if entry.serial == self._serial:
                return entry.depth
        return 0

    def _at_fork_reinit(self) -> None:  # pragma: no cover - fork path
        if hasattr(self._inner, "_at_fork_reinit"):
            self._inner._at_fork_reinit()

    def __getattr__(self, name: str) -> Any:
        # Anything else stdlib internals poke at (the lock protocol has
        # grown private members before) passes straight through.
        return getattr(object.__getattribute__(self, "_inner"), name)


def _thread_label() -> str:
    """The current thread's name without touching ``current_thread()``.

    ``threading.current_thread()`` registers a ``_DummyThread`` for
    unregistered threads — and a thread acquiring a sanitized lock
    *during its own bootstrap* (``Thread._started.set()`` runs before
    registration) is exactly that, so calling it from the acquisition
    hook recurses without bound.  A raw registry lookup never registers
    anything.
    """
    ident = _thread.get_ident()
    registry: dict[int, Any] = getattr(threading, "_active", {})
    thread = registry.get(ident)
    return str(thread.name) if thread is not None else f"thread-{ident}"


def _creation_site(serial: int) -> str:
    """``file:line`` of the code that created the lock, plus its serial.

    Walks out of this module and :mod:`threading` so ``Condition()``'s
    internal ``RLock()`` is attributed to the Condition's creator.
    """
    import sys

    frame = sys._getframe(1)
    here = __file__
    threading_file = threading.__file__
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in (here, threading_file):
            return f"{filename}:{frame.f_lineno}#{serial}"
        frame = frame.f_back
    return f"<unknown>#{serial}"


_ACTIVE: LockSanitizer | None = None


def install_from_env() -> LockSanitizer | None:
    """Install a process-wide sanitizer when ``REPRO_LOCK_SANITIZER=1``.

    Returns the (singleton) sanitizer, or None when the flag is unset.
    Harnesses call this as early as possible, read ``.report()`` at the
    end, and gate on ``.clean``.
    """
    global _ACTIVE
    if os.environ.get(_ENV_FLAG, "") not in {"1", "true", "yes"}:
        return None
    if _ACTIVE is None:
        _ACTIVE = LockSanitizer()
        _ACTIVE.install()
    return _ACTIVE


def active_sanitizer() -> LockSanitizer | None:
    """The process-wide sanitizer installed by :func:`install_from_env`."""
    return _ACTIVE


def report_path_from_env(default: str = "lock-sanitizer-report.json") -> Path:
    """Where the harness should write the report (env-overridable)."""
    return Path(os.environ.get(_ENV_REPORT, default))


__all__ = [
    "Inversion",
    "LockSanitizer",
    "LongHold",
    "OrderWitness",
    "active_sanitizer",
    "install_from_env",
    "report_path_from_env",
]
