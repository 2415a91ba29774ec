"""The plan service as a subprocess, and a closed-loop client.

The server is ``python -m repro serve-http --port 0`` with every other
flag at its default, started from the checkout's ``src``.  Its port is
read from the first line of its unbuffered stdout, readiness is the
first 200 from ``/healthz``, and it is stopped with SIGINT: a non-zero
exit, or none within :data:`STOP_DEADLINE`, fails the run.

The load generator is this one process with at most
:data:`CONNECTIONS` client threads, so at most that many requests are in
flight.  Every request opens its own connection (the server answers
``Connection: close``).
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

CONNECTIONS = 2
"""Client threads: the host's core count, per the load-generator rule."""

START_DEADLINE = 60.0
STOP_DEADLINE = 15.0
REQUEST_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server did not start, answer or stop as it must."""


def request(port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def program_env(root: Path) -> dict[str, str]:
    """Environment for a program process run from the checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")


class PlanServer:
    """One ``serve-http`` subprocess."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.process: subprocess.Popen[str] | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/healthz``; return seconds from launch to ready."""
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-http", "--port", "0"],
            cwd=self.root,
            env=program_env(self.root),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        watchdog = threading.Timer(START_DEADLINE, self.process.kill)
        watchdog.start()
        try:
            assert self.process.stdout is not None
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            self.kill()
            raise ServerError(f"server did not announce its port: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - launched
            if time.perf_counter() - launched > START_DEADLINE:
                self.kill()
                raise ServerError("server never answered /healthz")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stop(self) -> None:
        """SIGINT and wait; raise :class:`ServerError` on a bad or missing exit."""
        process = self.process
        if process is None:
            return
        process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=STOP_DEADLINE)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError(f"server did not exit within {STOP_DEADLINE:.0f}s of SIGINT")
        self.process = None
        if process.returncode != 0:
            raise ServerError(f"server exited with code {process.returncode}")

    def kill(self) -> None:
        process = self.process
        if process is not None:
            process.kill()
            process.communicate()
            self.process = None


@dataclass
class Exchange:
    """One request as the client saw it (perf_counter seconds)."""

    index: int
    """Which input was sent (position in the workload's input list)."""

    sent: float
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""


def send(port: int, exchange: Exchange, payload: bytes) -> None:
    try:
        exchange.status, exchange.body = request(port, "POST", "/plan", payload)
    except (OSError, http.client.HTTPException) as exc:
        exchange.error = f"{type(exc).__name__}: {exc}"
    exchange.done = time.perf_counter()


def _run_threads(worker: Callable[[], None]) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    port: int,
    payloads: Sequence[bytes],
    seconds: float,
    round_size: int,
    between: Callable[[], None],
) -> tuple[list[float], list[Exchange]]:
    """Rounds of *round_size* requests, sent in order, until *seconds* pass.

    Within a round each connection sends the next payload as soon as its
    last one returns.  Only whole rounds run: none starts after *seconds*
    or without payloads enough to finish it.  *between* runs after each
    round, with no request in flight.  Returns each round's start time
    and the exchanges in send order.
    """
    exchanges: list[Exchange] = []
    starts: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and len(exchanges) + round_size <= len(payloads):
        lock = threading.Lock()
        end = len(exchanges) + round_size

        def worker() -> None:
            while True:
                with lock:
                    index = len(exchanges)
                    if index >= end:
                        return
                    exchange = Exchange(index, time.perf_counter())
                    exchanges.append(exchange)
                send(port, exchange, payloads[index])

        starts.append(time.perf_counter())
        _run_threads(worker)
        between()
    return starts, exchanges


def parse_metrics(report: str) -> dict[str, float]:
    """Counters, histogram p50s and cache lines of the ``/metrics`` report."""
    values: dict[str, float] = {}
    for line in report.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "counter":
            values[parts[0]] = float(parts[2])
        elif len(parts) >= 5 and parts[1] == "histogram":
            values[f"{parts[0]}.p50"] = float(parts[4])
        elif line.startswith("plan cache:") and "hit rate" in line:
            values["cache_hit_rate"] = float(line.split("hit rate", 1)[1].split()[0])
        elif line.startswith("planner invocations:"):
            values["planner_invocations"] = float(parts[-1])
    return values
