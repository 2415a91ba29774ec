"""The three workloads: one over HTTP, two in-process.

Each workload builds its inputs from the seed, sets the program up
(once untimed, then :data:`SETUP_REPEATS` times, reporting the
median), measures for the given seconds with nothing traced, checks
every output, and — in a traced run — runs a bounded prefix of the
same ops again under spans.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import httpload
import inputs
from harness import (
    HostSpeed,
    Span,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
    self_time,
    tail_percentile,
    zipf_draws,
)
from replay import OpCursor, Recorded, encode, interposed, parse
from repro.core import make_planner
from repro.fleet import EdgeFleet, FingerprintAffinityRouting
from repro.forecast import UserSLA
from repro.mec.channel import SharedChannel
from repro.mec.devices import EdgeServer
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.service.fingerprint import request_fingerprint
from repro.service.http import parse_graph_payload
from repro.service.plan_cache import plan_digest, plan_from_dict

SETUP_REPEATS = 5
MIN_ROUNDS = 3
"""Rounds an in-process workload runs at least, so each input's median
latency outvotes one slow round."""
REPLAY_OPS = 48
"""Ops replayed under spans in a traced run (a prefix of the timed ops)."""

COLD_APP_SIZE = 250
COLD_BASES = 48
COLD_INPUTS_PER_SECOND = 60
"""Distinct cold apps generated per measured second: about one and a
half times what a 2-core host plans when it runs fast (~40 req/s); a
loop that runs out ends early and says so."""

SYSTEM_USERS = (4, 8, 12, 16, 20)
"""Users per system, cycled over the systems: every seed plans the same
mix of sizes.  A spread of sizes gives the latency distribution a body
of its own, so its tail reads the program's cost, not the host's."""
SYSTEM_APPS = 8
SYSTEM_APP_SIZE = 60
SYSTEM_BASES = 32
SYSTEM_COUNT = 100
"""Distinct systems per seed, planned in turn, one round after another.
A hundred leave ten beyond the p90 of their per-system medians, and
many systems of unshared apps keep a run's median close to the median
over all inputs, so runs on different seeds agree."""
SYSTEM_REPLAYS = 16
SYSTEM_CHANNEL_SHARE = 0.1
"""Channel capacity as a share of the users' summed uplink bandwidth.
Scarce enough that nearly every plan runs two rate/placement rounds: at
a quarter, plans split between one and two rounds, and a run's median
landed in either mode."""

FLEET_SERVERS = 4
FLEET_CAPACITY = 1200.0
FLEET_ARRIVALS = 32
FLEET_APP_SIZE = 100
FLEET_POPULAR = 6
"""Popular apps per stream, each arriving at least once.  An app's first
arrival in a stream plans it and later ones hit the fleet's cache, so
every stream plans the same number of apps (6 popular + 4 one-offs of
32): the p50 lies inside the cache hits and the p90 inside the plans.
With 16 popular apps drawn freely, about half the arrivals planned and
the p50 fell between the two, moving with each seed's draws."""
FLEET_ONE_OFF_SHARE = 1 / 8
FLEET_EPISODES = 8
"""Distinct arrival streams per seed, run in turn, one round after another."""
FLEET_TICK_EVERY = 4
FLEET_REBALANCE_EVERY = 8
FLEET_SLA_MIX = ((24, 1.05, "degrade"), (5, 0.5, "degrade"), (3, 0.5, "reject"))
"""(arrivals per stream, deadline as a multiple of the user's all-local
E+T, action on infeasibility), shuffled into each stream.
Offloading rarely costs a user more than running all-local, so 1.05x
nearly always admits; no single-user plan here halves its all-local
cost, so 0.5x degrades or rejects."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    """Run-level failures (bad server exit, drift): the run is not correct."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.notes) < 20:
            self.notes.append(f"failed op: {message}")

    def record_latencies(self, latencies: list[float], rates: list[float], speed: HostSpeed) -> None:
        """Latency percentiles of the ok ops, and their median rate.

        *rates* holds the ops per second of each round of the run; *speed*
        is the host-speed record the times were scaled with.
        """
        self.notes.append(speed.describe())
        self.metrics["latency_p50_ms"] = percentile(latencies, 0.5) * 1e3
        used, value = tail_percentile(latencies, 0.9)
        self.metrics["latency_p90_ms"] = value * 1e3
        if used < 0.9:
            self.notes.append(
                f"latency_p90_ms is p{used * 100:.0f}: {len(latencies)} samples leave "
                "fewer than 10 beyond p90"
            )
        self.metrics["ops_per_s"] = median(rates)
        self.notes.append(f"latency sample: {len(latencies)} ops, {len(rates)} rounds")


def repeat_medians(repeats: dict[Any, list[float]]) -> list[float]:
    """Each repeated op's median latency over the rounds of a run.

    The in-process workloads run every input once per round, for at
    least :data:`MIN_ROUNDS` rounds.  A host slowdown shorter than a
    round reaches an input in one round only, so its median ignores it.
    An even count of rounds takes the mean of the middle two: a faster
    host runs more rounds, and a lower middle would favour it.
    """
    return [statistics.median(samples) for samples in repeats.values() if samples]


SPEED_SAMPLES = 4
"""Reference-loop samples taken between two HTTP rounds."""


def median_setup(launch: Callable[[], float]) -> float:
    """Median seconds of :data:`SETUP_REPEATS` launches, after one untimed.

    *launch* starts the program and returns seconds from launch to ready.
    The untimed launch fills the file cache, which the host's other
    tenants may have emptied since the last run.  Unlike the other
    times, set-up is not scaled to reference speed: a launch is mostly
    loading and importing, whose time did not follow the reference loop.
    """
    launch()
    return median([launch() for _ in range(SETUP_REPEATS)])


def inprocess_setup(root: Path, construct: str) -> float:
    """Median seconds for a fresh interpreter to import and construct."""
    code = f"{construct}\nprint('ready')"

    def launch() -> float:
        launched = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=root,
            env=httpload.program_env(root),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        watchdog = threading.Timer(httpload.START_DEADLINE, process.kill)
        watchdog.start()
        try:
            assert process.stdout is not None
            line = process.stdout.readline()
            ready = time.perf_counter() - launched
            process.communicate()
        finally:
            watchdog.cancel()
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
        return ready

    return median_setup(launch)


SPAN_TIMINGS = {
    "http.parse": "http.parse_ms",
    "http.encode": "http.encode_ms",
    "fingerprint": "fingerprint.ms",
    "planner.plan_user": "planner.plan_user_ms",
    "planner.plan_system": "planner.plan_system_ms",
    "callgraph.offloadable": "callgraph.offloadable_ms",
    "compression.compress": "compression.compress_ms",
    "compression.expand": "compression.expand_ms",
    "graphs.components": "graphs.components_ms",
    "graphs.subgraph": "graphs.subgraph_ms",
    "spectral.cut": "spectral.cut_ms",
    "scheme.partition": "scheme.partition_ms",
    "greedy": "greedy.ms",
    "fleet.admit": "fleet.admit_ms",
    "fleet.tick": "fleet.tick_ms",
    "fleet.rebalance": "fleet.rebalance_ms",
    "fleet.modelled": "fleet.modelled_ms",
}
"""Span name -> per-layer metric of its p50 duration; ``<span>.calls``
counts its calls."""


def _layer_timings(tracer: Tracer, layers: dict[str, float], ops: int) -> None:
    """p50 duration and call count of every span name."""
    by_name: dict[str, list[float]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span.duration)
    for name, durations in by_name.items():
        layers[SPAN_TIMINGS[name]] = percentile(durations, 0.5) * 1e3
        layers[f"{name}.calls"] = float(len(durations))
    layers["fingerprint.calls_per_op"] = len(by_name.get("fingerprint", [])) / ops


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    began = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - began


def _attribution(tracer: Tracer, layers: dict[str, float], pairs: list[tuple[float, Span]]) -> None:
    """Compare traced parent spans with direct, untraced calls on the same input.

    *pairs* holds (direct seconds, traced parent span) per replayed call.
    ``trace.unattributed_share`` is the share of the direct wall time the
    parent's child spans leave uncovered, ``trace.overhead_share`` how
    much longer the traced call took; both are medians over the pairs,
    so one call disturbed by the host does not decide them.
    """
    covered = [span.duration - self_time(span, tracer.children(span)) for _, span in pairs]
    layers["trace.unattributed_share"] = 1.0 - median(
        [part / direct for part, (direct, _) in zip(covered, pairs)]
    )
    layers["trace.overhead_share"] = median([span.duration / direct for direct, span in pairs]) - 1.0


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
HTTP_ROUND = 32
"""Consecutive requests, in send order, that make one round."""

STARTUP_GRACE = 0.2
"""Seconds a set-up probe server runs before SIGINT.  ``serve-http``
installs no handler of its own before it blocks in its serving loop, so
a SIGINT that lands while it still prints its banner ends it with a
traceback; the grace keeps the probe's stop out of that window."""


def _start_server(root: Path, outcome: Outcome) -> httpload.PlanServer:
    """Start the server once untimed and SETUP_REPEATS times timed; keep
    the last one running."""
    servers: list[httpload.PlanServer] = []

    def launch() -> float:
        if servers:
            time.sleep(STARTUP_GRACE)
            servers.pop().stop()
        servers.append(httpload.PlanServer(root))
        return servers[-1].start()

    outcome.metrics["setup_s"] = median_setup(launch)
    return servers[-1]


def _check_response(
    exchange: httpload.Exchange, reference: str, outcome: Outcome
) -> dict[str, Any] | None:
    """The decoded body when the response is a correct plan, else ``None``."""
    if exchange.error or exchange.status != 200:
        outcome.fail(f"request {exchange.index}: status {exchange.status} {exchange.error}")
        return None
    body = json.loads(exchange.body)
    problem = digest_problem(body, reference)
    if problem:
        outcome.fail(f"request {exchange.index}: {problem}")
        return None
    return body


def digest_problem(body: dict[str, Any], reference: str) -> str:
    """Why a ``/plan`` response body is wrong, or ``""`` when it is right.

    Its ``plan_digest`` must be the digest of its own plan, and equal
    the *reference* digest planned in-process for the same graph.
    """
    if not body.get("ok") or "plan" not in body:
        return f"not ok: {body.get('error')}"
    own = plan_digest(plan_from_dict(body["plan"]))
    if body.get("plan_digest") != own:
        return "plan_digest does not match the returned plan"
    if own != reference:
        return "plan differs from the in-process plan_user plan"
    return ""


class References:
    """In-process ``plan_user`` digests per input, planned once each."""

    def __init__(self, payloads: list[dict[str, Any]]) -> None:
        self.payloads = payloads
        self.planner = make_planner("spectral")
        self.digests: dict[int, str] = {}

    def digest(self, index: int) -> str:
        if index not in self.digests:
            graph = parse_graph_payload(self.payloads[index])
            self.digests[index] = plan_digest(self.planner.plan_user(graph))
        return self.digests[index]


def _finish_http(
    server: httpload.PlanServer,
    outcome: Outcome,
    exchanges: list[httpload.Exchange],
    references: References,
) -> tuple[list[dict[str, Any] | None], dict[str, float]]:
    """Read /metrics and peak RSS, stop the server, check every response."""
    try:
        status, report = httpload.request(server.port, "GET", "/metrics")
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(server.pid)
    except BaseException:
        server.kill()
        raise
    server_metrics = httpload.parse_metrics(report.decode()) if status == 200 else {}
    if status != 200:
        outcome.problems.append(f"/metrics answered {status}")
    try:
        server.stop()
    except httpload.ServerError as exc:
        outcome.problems.append(str(exc))
    outcome.attempted = len(exchanges)
    bodies = [_check_response(x, references.digest(x.index), outcome) for x in exchanges]
    if not any(body is not None for body in bodies):
        raise RuntimeError("no request succeeded")
    return bodies, server_metrics


def _server_layers(
    layers: dict[str, float],
    server_metrics: dict[str, float],
    exchanges: list[httpload.Exchange],
    bodies: list[dict[str, Any] | None],
) -> None:
    total = max(server_metrics.get("requests_total", 0.0), 1.0)
    layers["server.latency_ms"] = server_metrics.get("request_latency_seconds.p50", 0.0) * 1e3
    layers["batching.coalesced_share"] = server_metrics.get("requests_coalesced", 0.0) / total
    layers["server.shed_share"] = server_metrics.get("requests_shed", 0.0) / total
    layers["plan_cache.hit_share"] = server_metrics.get("cache_hit_rate", 0.0)
    layers["planner.invocations_per_op"] = server_metrics.get("planner_invocations", 0.0) / total
    overheads = [
        (x.done - x.sent) - body["latency_seconds"]
        for x, body in zip(exchanges, bodies)
        if body is not None
    ]
    layers["http.overhead_ms"] = percentile(overheads, 0.5) * 1e3


def _replay_http(
    outcome: Outcome,
    exchanges: list[httpload.Exchange],
    bodies_in: list[bytes],
    references: References,
    count: int,
) -> None:
    """Replay the first *count* timed requests in-process under spans.

    The frontend's parse, fingerprint and encode are replayed, around
    the real ``plan_user`` under :func:`interposed` (every request is a
    cache miss).
    """
    tracer = Tracer()
    cursor = OpCursor()
    recorded = Recorded()
    planner = references.planner
    pairs: list[tuple[float, Span]] = []
    replayed = exchanges[:count]
    for op, exchange in enumerate(replayed):
        cursor.op = op
        graph = parse(tracer, bodies_in[exchange.index], op)
        key = tracer.call(
            "fingerprint", op, request_fingerprint, graph, planner.config, planner.strategy_name
        )
        # Alternate which of the two plans runs first, so neither
        # gains from running on a warmer process.
        if op % 2:
            direct, seconds = _timed(planner.plan_user, graph)
        with interposed(tracer, cursor, recorded):
            plan = planner.plan_user(graph)
        if not op % 2:
            direct, seconds = _timed(planner.plan_user, graph)
        pairs.append((seconds, tracer.named("planner.plan_user")[-1]))
        if plan_digest(plan) != plan_digest(direct):
            outcome.problems.append(f"tracing changed the plan of request {exchange.index}")
        encode(tracer, key, plan, op)
    layers = outcome.layers
    _layer_timings(tracer, layers, len(replayed))
    layers.update(recorded.layer_stats(tracer))
    _attribution(tracer, layers, pairs)
    outcome.tracer = tracer


def _plan_quality(payloads: list[dict[str, Any]], served: dict[int, dict[str, Any]]) -> float:
    """E+T of the served plans, placed for one user each, over all-local E+T.

    *served* maps an input index to the response body that planned it.
    """
    graphs = [parse_graph_payload(payloads[index]) for index in served]
    planned = sum(
        inputs.single_user_cost(graph, plan_from_dict(body["plan"]))
        for graph, body in zip(graphs, served.values())
    )
    return planned / inputs.all_local_cost(graphs)


def http_cold(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop, every request a distinct ~250-function app.

    Requests go in rounds of :data:`HTTP_ROUND`; the host's speed is
    sampled between rounds, with nothing in flight.  A request's latency
    runs from its send to its response, at the speed around its send.
    """
    outcome = Outcome()
    rng = random.Random(f"http-cold:{seed}")
    bases = inputs.netgen_payloads(COLD_APP_SIZE, COLD_BASES, seed, "base")
    payloads = [
        inputs.variant_payload(bases[i % COLD_BASES], f"cold-{i}", rng)
        for i in range(int(COLD_INPUTS_PER_SECOND * seconds) + REPLAY_OPS)
    ]
    bodies_in = [inputs.encode(payload) for payload in payloads]
    server = _start_server(root, outcome)
    speed = HostSpeed(every_cpu=True)

    def between() -> None:
        for _ in range(SPEED_SAMPLES):
            speed.sample()

    try:
        between()
        starts, exchanges = httpload.closed_loop(
            server.port, bodies_in, seconds, HTTP_ROUND, between
        )
    except BaseException:
        server.kill()
        raise
    if len(exchanges) + HTTP_ROUND > len(bodies_in):
        outcome.notes.append(f"ran out of inputs after {len(exchanges)} requests")
    references = References(payloads)
    bodies, server_metrics = _finish_http(server, outcome, exchanges, references)
    ok = [x for x, body in zip(exchanges, bodies) if body is not None]
    rounds = [exchanges[k : k + HTTP_ROUND] for k in range(0, len(exchanges), HTTP_ROUND)]
    outcome.record_latencies(
        [speed.normalise(x.done - x.sent, x.sent) for x in ok],
        [
            len(block) / speed.normalise(max(x.done for x in block) - start, start)
            for block, start in zip(rounds, starts)
        ],
        speed,
    )
    # Plan quality: the first requests are sent on every seed and host.
    served = [(x.index, body) for x, body in zip(exchanges, bodies) if body is not None]
    outcome.metrics["energy_time"] = _plan_quality(payloads, dict(served[:64]))
    if trace:
        _server_layers(outcome.layers, server_metrics, exchanges, bodies)
        _replay_http(outcome, exchanges, bodies_in, references, REPLAY_OPS)
    return outcome


# ----------------------------------------------------------------------
# system-plan
# ----------------------------------------------------------------------
def _build_systems(seed: int) -> list[tuple[MECSystem, dict[str, Any]]]:
    """SYSTEM_COUNT systems, each of SYSTEM_APPS apps that no other system shares."""
    rng = random.Random(f"system-plan:{seed}")
    bases = inputs.netgen_payloads(SYSTEM_APP_SIZE, SYSTEM_BASES, seed, "base")
    systems = []
    for index in range(SYSTEM_COUNT):
        apps = [
            inputs.variant_app(bases[base], f"system{index}-app{base}", rng)
            for base in rng.sample(range(SYSTEM_BASES), SYSTEM_APPS)
        ]
        users = [
            UserContext(inputs.device(f"user{k:03d}"), apps[k % SYSTEM_APPS])
            for k in range(SYSTEM_USERS[index % len(SYSTEM_USERS)])
        ]
        bandwidth = sum(user.device.bandwidth for user in users)
        system = MECSystem(
            EdgeServer(inputs.PROFILE.server_capacity_per_user * len(users)),
            users,
            channel=SharedChannel(capacity=SYSTEM_CHANNEL_SHARE * bandwidth),
        )
        systems.append((system, {user.user_id: user.call_graph for user in users}))
    return systems


def _check_system(result: Any, system: MECSystem, graphs: dict[str, Any]) -> str:
    """Why a plan_system result is wrong, or ``""``."""
    apps = {
        user_id: PartitionedApplication(user_id, graphs[user_id], plan.parts)
        for user_id, plan in result.user_plans.items()
    }
    again = system.evaluate_placement(apps, result.greedy.remote_parts)
    if again.combined() != result.consumption.combined():
        return "consumption differs from evaluate_placement of the returned placement"
    history = result.greedy.history
    if any(later > earlier for earlier, later in zip(history, history[1:])):
        return "greedy history increased"
    return ""


def system_plan(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop of OffloadingPlanner.plan_system over shared-channel systems.

    The loop plans the systems in turn and stops only after a whole
    round past the deadline, so every system is sampled equally often.
    Each result is checked as soon as it returns, outside its latency
    sample, and only its verdict and E+T are kept.
    """
    outcome = Outcome()
    outcome.metrics["setup_s"] = inprocess_setup(
        root, "from repro.core import make_planner\nplanner = make_planner('spectral')"
    )
    systems = _build_systems(seed)
    planner = make_planner("spectral")
    speed = HostSpeed()
    first: dict[int, float] = {}
    timed: list[tuple[int, float, float]] = []
    """(op, start, seconds) of every correct op."""
    op = 0
    deadline = time.perf_counter() + seconds
    while op % SYSTEM_COUNT or op < MIN_ROUNDS * SYSTEM_COUNT or time.perf_counter() < deadline:
        index = op % SYSTEM_COUNT
        system, graphs = systems[index]
        began = time.perf_counter()
        result = planner.plan_system(system, graphs)
        latency = time.perf_counter() - began
        speed.sample()
        problem = _check_system(result, system, graphs)
        value = result.consumption.combined()
        if not problem and first.setdefault(index, value) != value:
            problem = "plan_system is not deterministic"
        if problem:
            outcome.fail(f"system op {op}: {problem}")
        else:
            timed.append((op, began, latency))
        op += 1
    repeats: dict[int, list[float]] = {index: [] for index in range(SYSTEM_COUNT)}
    busy = [0.0] * (op // SYSTEM_COUNT)
    for done, began, latency in timed:
        latency = speed.normalise(latency, began)
        repeats[done % SYSTEM_COUNT].append(latency)
        busy[done // SYSTEM_COUNT] += latency
    rates = [SYSTEM_COUNT / total for total in busy if total > 0]
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.attempted = op
    outcome.record_latencies(repeat_medians(repeats), rates, speed)
    planned = sum(first.values())
    local = sum(inputs.all_local_cost(list(graphs.values())) for _, graphs in systems)
    outcome.metrics["energy_time"] = planned / local
    if trace:
        _replay_systems(outcome, systems, planner)
    return outcome


def _replay_systems(
    outcome: Outcome, systems: list[tuple[MECSystem, dict[str, Any]]], planner: Any
) -> None:
    """Plan the first systems again, untraced and under spans, in alternating order."""
    tracer = Tracer()
    cursor = OpCursor()
    recorded = Recorded()
    pairs: list[tuple[float, Span]] = []
    for op, (system, graphs) in enumerate(systems[:SYSTEM_REPLAYS]):
        cursor.op = op
        if op % 2:
            direct, seconds = _timed(planner.plan_system, system, graphs)
        with interposed(tracer, cursor, recorded):
            traced = planner.plan_system(system, graphs)
        if not op % 2:
            direct, seconds = _timed(planner.plan_system, system, graphs)
        pairs.append((seconds, tracer.named("planner.plan_system")[-1]))
        if (
            traced.greedy.remote_parts != direct.greedy.remote_parts
            or traced.consumption.combined() != direct.consumption.combined()
        ):
            outcome.problems.append(f"tracing changed the plan of system {op}")
    layers = outcome.layers
    _layer_timings(tracer, layers, SYSTEM_REPLAYS)
    layers.update(recorded.layer_stats(tracer))
    _attribution(tracer, layers, pairs)
    layers["planner.invocations_per_op"] = len(tracer.named("planner.plan_user")) / SYSTEM_REPLAYS
    layers["plan_cache.hit_share"] = 1.0 - len(tracer.named("planner.plan_user")) / len(
        tracer.named("fingerprint")
    )
    outcome.tracer = tracer


# ----------------------------------------------------------------------
# fleet-admit
# ----------------------------------------------------------------------
Episode = list[tuple[Any, Any, UserSLA]]
"""One fleet's arrival stream: (device, graph, SLA) per arrival."""


def _build_episodes(seed: int) -> list[Episode]:
    """FLEET_EPISODES streams, each with its own popular apps and one-offs."""
    rng = random.Random(f"fleet-admit:{seed}")
    bases = inputs.netgen_payloads(FLEET_APP_SIZE, FLEET_POPULAR, seed, "fleet-base")
    one_offs = round(FLEET_ARRIVALS * FLEET_ONE_OFF_SHARE)
    repeats = FLEET_ARRIVALS - one_offs - FLEET_POPULAR
    episodes = []
    for e in range(FLEET_EPISODES):
        popular = [inputs.variant_app(base, f"e{e}-app{k}", rng) for k, base in enumerate(bases)]
        # Every popular app once, Zipf repeats, and the one-offs (None).
        draws: list[int | None] = [*range(FLEET_POPULAR), *[None] * one_offs]
        draws += zipf_draws(FLEET_POPULAR, repeats, f"fleet-admit:{seed}:{e}")
        rng.shuffle(draws)
        slas = [(factor, action) for count, factor, action in FLEET_SLA_MIX for _ in range(count)]
        rng.shuffle(slas)
        arrivals = []
        for k, (draw, (factor, action)) in enumerate(zip(draws, slas)):
            if draw is None:
                base = bases[rng.randrange(FLEET_POPULAR)]
                graph = inputs.variant_app(base, f"e{e}-one-off-{k}", rng)
            else:
                graph = popular[draw]
            deadline = factor * inputs.all_local_cost([graph])
            arrivals.append((inputs.device(f"e{e}-u{k:02d}"), graph, UserSLA(deadline, action)))
        episodes.append(arrivals)
    return episodes


def _new_fleet() -> EdgeFleet:
    return EdgeFleet(
        n_servers=FLEET_SERVERS,
        capacity_per_server=FLEET_CAPACITY,
        routing=FingerprintAffinityRouting(),
    )


@dataclass
class EpisodeRun:
    calls: list[tuple[str, float, float]]
    """(span name, start, seconds) of every fleet call, in order."""
    outcomes: dict[str, int]
    ratio: float
    rebalance_moves: list[int]
    cache_hit_rate: float
    problem: str

    @property
    def admissions(self) -> list[tuple[float, float]]:
        """(start, seconds) of every admission."""
        return [(start, took) for name, start, took in self.calls if name == "fleet.admit"]


def run_episode(
    episode: Episode,
    timed: Callable[[str, Callable[[], Any]], Any] | None = None,
    speed: HostSpeed | None = None,
) -> EpisodeRun:
    """Admit one stream into a fresh fleet, ticking and rebalancing as it goes.

    *timed* wraps the fleet calls (the traced run passes a span recorder);
    *speed*, when given, is sampled after every fleet call.
    """
    wrap = timed or (lambda name, fn: fn())
    fleet = _new_fleet()
    calls: list[tuple[str, float, float]] = []

    def call(name: str, fn: Callable[[], Any]) -> Any:
        began = time.perf_counter()
        result = wrap(name, fn)
        calls.append((name, began, time.perf_counter() - began))
        if speed is not None:
            speed.sample()
        return result

    outcomes = {"admitted": 0, "degraded": 0, "rejected": 0}
    moves: list[int] = []
    for k, (device, graph, sla) in enumerate(episode):
        admission = call("fleet.admit", lambda: fleet.admit(device, graph, sla=sla))
        if admission.rejected:
            outcomes["rejected"] += 1
        elif admission.degraded:
            outcomes["degraded"] += 1
        else:
            outcomes["admitted"] += 1
        if (k + 1) % FLEET_TICK_EVERY == 0:
            call("fleet.tick", fleet.tick)
        if (k + 1) % FLEET_REBALANCE_EVERY == 0:
            moves.append(call("fleet.rebalance", lambda: fleet.rebalance(proactive=True)))
    stats = fleet.stats()
    report = fleet.sla_report()
    problem = ""
    if sum(outcomes.values()) != len(episode):
        problem = "admitted + degraded + rejected != arrivals"
    elif stats.users + stats.degraded_users + report.rejections != len(episode):
        problem = "fleet users + degraded + rejections != arrivals"
    ledger = fleet.total_consumption()
    in_ledger = [graph for device, graph, _ in episode if device.device_id in ledger.per_user]
    ratio = ledger.combined() / inputs.all_local_cost(in_ledger)
    return EpisodeRun(calls, outcomes, ratio, moves, stats.cache_hit_rate, problem)


def fleet_admit(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    """A stream of SLA admissions into a 4-server fleet, with ticks and rebalances.

    An admission's latency is its own call; the rate counts admissions
    over the time of every fleet call, ticks and rebalances included.
    """
    outcome = Outcome()
    outcome.metrics["setup_s"] = inprocess_setup(
        root,
        "from repro.fleet import EdgeFleet, FingerprintAffinityRouting\n"
        f"fleet = EdgeFleet(n_servers={FLEET_SERVERS}, capacity_per_server={FLEET_CAPACITY}, "
        "routing=FingerprintAffinityRouting())",
    )
    episodes = _build_episodes(seed)
    speed = HostSpeed()
    runs: list[EpisodeRun] = []
    deadline = time.perf_counter() + seconds
    # Whole rounds over the episodes only: each is run equally often.
    while (
        len(runs) % FLEET_EPISODES
        or len(runs) < MIN_ROUNDS * FLEET_EPISODES
        or time.perf_counter() < deadline
    ):
        runs.append(run_episode(episodes[len(runs) % FLEET_EPISODES], speed=speed))
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    first: dict[int, float] = {}
    repeats: dict[tuple[int, int], list[float]] = {}
    busy = [0.0] * (len(runs) // FLEET_EPISODES)
    for index, run in enumerate(runs):
        arrivals = len(run.admissions)
        outcome.attempted += arrivals
        episode = index % FLEET_EPISODES
        problem = run.problem
        if not problem and first.setdefault(episode, run.ratio) != run.ratio:
            problem = "episode is not deterministic"
        if problem:
            outcome.fail(f"episode {index}: {problem}", arrivals)
            continue
        for k, (began, took) in enumerate(run.admissions):
            repeats.setdefault((episode, k), []).append(speed.normalise(took, began))
        busy[index // FLEET_EPISODES] += sum(
            speed.normalise(took, began) for _, began, took in run.calls
        )
    round_arrivals = sum(len(episode) for episode in episodes)
    outcome.record_latencies(
        repeat_medians(repeats), [round_arrivals / total for total in busy if total > 0], speed
    )
    outcome.metrics["energy_time"] = sum(first.values()) / len(first)
    totals = {name: sum(run.outcomes[name] for run in runs) for name in runs[0].outcomes}
    outcome.notes.append(f"admission outcomes: {totals}")
    if trace:
        _trace_fleet(outcome, episodes[0], runs)
    return outcome


FLEET_TRACE_PAIRS = 3


def _traced_episode(episode: Episode) -> tuple[Tracer, Recorded, EpisodeRun]:
    """Run *episode* with spans around the fleet calls and the calls they make."""
    tracer = Tracer()
    cursor = OpCursor()
    recorded = Recorded()

    def timed(name: str, fn: Callable[[], Any]) -> Any:
        if name == "fleet.admit":
            cursor.op += 1
        with tracer.span(name, cursor.op):
            return fn()

    with interposed(tracer, cursor, recorded):
        run = run_episode(episode, timed)
    return tracer, recorded, run


def _trace_fleet(outcome: Outcome, episode: Episode, runs: list[EpisodeRun]) -> None:
    """Re-run the first episode untraced and traced, in alternating order."""
    slowdowns = []
    for pair in range(FLEET_TRACE_PAIRS):
        if pair % 2:
            _, untraced = _timed(run_episode, episode)
        (tracer, recorded, traced_run), traced = _timed(_traced_episode, episode)
        if not pair % 2:
            _, untraced = _timed(run_episode, episode)
        slowdowns.append(traced / untraced)
        if traced_run.ratio != runs[0].ratio:
            outcome.problems.append("traced fleet episode drifted from the untraced one")
    layers = outcome.layers
    _layer_timings(tracer, layers, len(episode))
    admits = tracer.named("fleet.admit")
    layers["trace.unattributed_share"] = sum(
        self_time(span, tracer.children(span)) for span in admits
    ) / sum(span.duration for span in admits)
    layers["trace.overhead_share"] = median(slowdowns) - 1.0
    layers.update(recorded.layer_stats(tracer))
    arrivals = sum(len(run.admissions) for run in runs)
    layers["fleet.cache_hit_share"] = sum(run.cache_hit_rate for run in runs) / len(runs)
    layers["fleet.degraded_share"] = sum(run.outcomes["degraded"] for run in runs) / arrivals
    all_moves = [m for run in runs for m in run.rebalance_moves]
    layers["fleet.rebalance_moves"] = sum(all_moves) / len(all_moves)
    outcome.tracer = tracer


WORKLOADS: dict[str, Callable[[Path, int, float, bool], Outcome]] = {
    "http-cold": http_cold,
    "system-plan": system_plan,
    "fleet-admit": fleet_admit,
}
