"""Program-independent helpers of the benchmark: statistics, spans, schedules.

Nothing here imports :mod:`repro`, so these helpers are testable on their
own (``perfbench/tests``) and cannot drift with the program under test.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it; with fewer, the highest percentile that has them is used."""


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile (``0 < q <= 1``) of *samples*."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], q: float, beyond: int = MIN_BEYOND
) -> tuple[float, float]:
    """``(quantile used, value)``: *q* when at least *beyond* samples lie
    above its nearest rank, else the highest quantile that leaves them.

    The nearest rank of quantile ``r/n`` is ``r``, leaving ``n - r``
    samples beyond it, so the highest supported rank is ``n - beyond``.
    Raises ``ValueError`` when the sample cannot support even that.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond any percentile")
    rank = math.ceil(q * n)
    used = q
    if rank > n - beyond:
        rank = n - beyond
        used = rank / n
    return used, sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (the value of a real sample)."""
    return percentile(samples, 0.5)


# ----------------------------------------------------------------------
# Input draws
# ----------------------------------------------------------------------
def zipf_draws(n_items: int, count: int, seed: str | int, exponent: float = 1.0) -> list[int]:
    """*count* indices in ``[0, n_items)`` with ``P(k) ~ 1 / (k + 1) ** exponent``."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    rng = random.Random(f"zipf:{seed}")
    weights = [1.0 / (k + 1) ** exponent for k in range(n_items)]
    return rng.choices(range(n_items), weights=weights, k=count)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call: seconds on the ``perf_counter`` clock."""

    span_id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; the open span stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        record = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, op: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span named *name*."""
        with self.span(name, op):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self, span: Span) -> list[Span]:
        return [child for child in self.spans if child.parent == span.span_id]

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome-trace JSON (opens in Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": span.op, "span": span.span_id, "parent": span.parent},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """*span*'s duration minus the part of it its children cover."""
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return span.duration - covered(clipped)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
REFERENCE_LOOPS = 20_000
REFERENCE_SECONDS = 2e-3
"""What :func:`reference_work` takes on the reference host: a timing
expressed at reference speed is scaled as if the loop took this long."""
SPEED_NEIGHBOURS = 9


def reference_work() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    began = time.perf_counter()
    total = 0
    for k in range(REFERENCE_LOOPS):
        total += k * k % 7
    return time.perf_counter() - began


class HostSpeed:
    """Timings of :func:`reference_work`, interleaved with the program's.

    A shared host runs every process at a speed that drifts by half and
    more within a minute, in phases longer than one run.  Runs made in
    different phases disagree by more than any regression worth catching,
    so the benchmark samples the reference loop between ops, in the same
    thread and while the program is idle, and reports each time scaled
    to the speed at which the loop takes :data:`REFERENCE_SECONDS`.  The
    program cannot move the loop: a slower program still reads slower.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []
        """CPUs to sample one by one, for a program in another process
        that may run on any of them: each CPU's speed drifts on its own."""

    def sample(self) -> float:
        """Time the reference loop once (on each of :attr:`cpus`, averaged);
        return how long the sample took."""
        began = time.perf_counter()
        if not self.cpus:
            self.seconds.append(reference_work())
        else:
            per_cpu = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    reference_work()  # the first run after a move warms the caches
                    per_cpu.append(reference_work())
            finally:
                os.sched_setaffinity(0, self.cpus)
            self.seconds.append(sum(per_cpu) / len(per_cpu))
        self.at.append(began)
        return time.perf_counter() - began

    def scale(self, at: float) -> float:
        """Reference seconds per host second around perf_counter time *at*:
        from the median of the :data:`SPEED_NEIGHBOURS` samples nearest to it."""
        if not self.at:
            raise ValueError("no host-speed sample taken")
        index = bisect.bisect_left(self.at, at)
        low = max(0, index - SPEED_NEIGHBOURS // 2)
        high = min(len(self.at), low + SPEED_NEIGHBOURS)
        low = max(0, high - SPEED_NEIGHBOURS)
        ordered = sorted(self.seconds[low:high])
        return REFERENCE_SECONDS / ordered[(len(ordered) - 1) // 2]

    def normalise(self, seconds: float, at: float) -> float:
        """*seconds* of program time measured around *at*, at reference speed."""
        return seconds * self.scale(at)

    def describe(self) -> str:
        ordered = sorted(self.seconds)
        return (
            f"host speed: reference loop median {ordered[(len(ordered) - 1) // 2] * 1e3:.3f} ms "
            f"over {len(ordered)} samples (reference speed: {REFERENCE_SECONDS * 1e3:g} ms)"
        )


# ----------------------------------------------------------------------
# Process introspection
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
