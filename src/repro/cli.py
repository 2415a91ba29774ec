"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1``    — regenerate Table I (compression results);
* ``figures``   — regenerate the energy figures (3-5 single-user or
  6-8 multi-user) or the Fig. 9 timing comparison;
* ``generate``  — emit a NETGEN-style workload graph as JSON;
* ``plan``      — plan offloading for a workload graph and print the
  scheme summary;
* ``simulate``  — plan, then execute the plan on the discrete-event
  simulator (optionally with injected faults; ``--json`` dumps the full
  per-user timelines);
* ``report``    — run the whole evaluation and write a markdown report;
* ``sensitivity`` — sweep one physical parameter and show the crossover;
* ``compress``  — run Algorithm 1 on a workload graph, print quality
  metrics, optionally write a Graphviz DOT rendering of the clustering;
* ``verify``    — run the evaluation and check every qualitative claim
  of the paper (the reproduction ledger); non-zero exit on any failure;
* ``serve-bench`` — replay a synthetic multi-user arrival trace through
  the plan service (content-addressed cache + batching worker pool) and
  print the service metrics report;
* ``fleet-bench`` — replay an arrival trace over a multi-server edge
  fleet once per routing policy, reporting load balance, aggregate
  plan-cache hit rate and ``E + T`` vs. a single server of equal total
  capacity;
* ``lint``      — run the repo's static-analysis battery (determinism,
  lock discipline, exception hygiene, lock order, async safety); also
  installed as the ``repro-lint`` console script.

Every command takes ``--seed`` and prints plain-text tables, so runs are
reproducible and diffable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.baselines import make_planner
from repro.experiments.figures import (
    run_multiuser_energy_experiment,
    run_single_user_energy_experiment,
)
from repro.experiments.reporting import render_table
from repro.experiments.table1 import run_table1
from repro.experiments.timing import run_timing_experiment
from repro.graphs.io import load_graph_json, save_graph_json
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.simulation import ServerDegradation, simulate_scheme
from repro.workloads.applications import call_graph_from_weighted_graph
from repro.workloads.netgen import NetgenConfig, netgen_graph, paper_network_configs
from repro.workloads.profiles import paper_profile, quick_profile


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Computation Offloading for MEC with Multi-user' (ICDCS 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="regenerate Table I (compression results)")
    t1.add_argument("--sizes", type=int, nargs="*", default=None,
                    help="graph sizes (default: the paper's five networks)")
    t1.add_argument("--seed", type=int, default=0)

    fig = sub.add_parser("figures", help="regenerate the evaluation figures")
    fig.add_argument("family", choices=["single-user", "multi-user", "timing"])
    fig.add_argument("--profile", choices=["quick", "paper"], default="quick")
    fig.add_argument("--repetitions", type=int, default=None)

    gen = sub.add_parser("generate", help="emit a NETGEN-style workload graph as JSON")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True)

    plan = sub.add_parser("plan", help="plan offloading for a workload graph")
    plan.add_argument("--graph", type=Path, required=True, help="graph JSON (see 'generate')")
    plan.add_argument("--strategy", choices=["spectral", "maxflow", "kl"], default="spectral")
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--server-capacity", type=float, default=300.0)

    sim = sub.add_parser("simulate", help="plan and execute on the event simulator")
    sim.add_argument("--graph", type=Path, required=True)
    sim.add_argument("--strategy", choices=["spectral", "maxflow", "kl"], default="spectral")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--server-capacity", type=float, default=300.0)
    sim.add_argument(
        "--server-fault",
        type=str,
        default=None,
        metavar="TIME:FACTOR",
        help="inject a server degradation, e.g. 2.0:0.5",
    )
    sim.add_argument("--json", action="store_true", help="emit the raw report as JSON")

    rep = sub.add_parser("report", help="run the evaluation and write a markdown report")
    rep.add_argument("--profile", choices=["quick", "paper"], default="quick")
    rep.add_argument("--out", type=Path, default=None, help="write to file (default stdout)")
    rep.add_argument("--no-timing", action="store_true", help="skip the Fig. 9 timing sweep")

    sens = sub.add_parser("sensitivity", help="sweep one parameter and show the crossover")
    sens.add_argument(
        "parameter",
        choices=["power_transmit", "bandwidth", "compute_capacity", "server_capacity"],
    )
    sens.add_argument("--graph-size", type=int, default=None)
    sens.add_argument("--algorithm", choices=["spectral", "maxflow", "kl"], default="spectral")

    comp = sub.add_parser("compress", help="compress a workload graph (Algorithm 1)")
    comp.add_argument("--graph", type=Path, required=True)
    comp.add_argument("--dot", type=Path, default=None, help="write the clustering as DOT")

    ver = sub.add_parser("verify", help="check every qualitative claim of the paper")
    ver.add_argument("--profile", choices=["quick", "paper"], default="quick")

    serve = sub.add_parser(
        "serve-bench", help="replay an arrival trace through the plan service"
    )
    serve.add_argument("--requests", type=int, default=200, help="arrivals to replay")
    serve.add_argument("--pool", type=int, default=8, help="distinct apps in the pool")
    serve.add_argument("--graph-size", type=int, default=120, help="functions per app")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--batch", type=int, default=16, help="flights per worker wakeup")
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--cache-capacity", type=int, default=64)
    serve.add_argument("--rate", type=float, default=200.0, help="Poisson arrival rate")
    serve.add_argument(
        "--strategy", choices=["spectral", "maxflow", "kl"], default="spectral"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--spill", type=Path, default=None, help="plan-cache JSON spill file"
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="tiny fast path (24 requests, 4 apps of 40 functions) for CI",
    )

    http = sub.add_parser(
        "serve-http", help="expose the plan service over an HTTP frontend"
    )
    http.add_argument("--host", default="127.0.0.1")
    http.add_argument("--port", type=int, default=8753)
    http.add_argument("--workers", type=int, default=2)
    http.add_argument(
        "--strategy", choices=["spectral", "maxflow", "kl"], default="spectral"
    )
    http.add_argument("--cache-capacity", type=int, default=256)
    http.add_argument(
        "--spill", type=Path, default=None, help="plan-cache JSON spill file"
    )

    fleet = sub.add_parser(
        "fleet-bench", help="compare fleet routing policies on an arrival trace"
    )
    fleet.add_argument("--requests", type=int, default=48, help="arrivals to replay")
    fleet.add_argument("--pool", type=int, default=4, help="distinct apps in the pool")
    fleet.add_argument("--graph-size", type=int, default=60, help="functions per app")
    fleet.add_argument("--servers", type=int, default=4, help="fleet size")
    fleet.add_argument(
        "--capacities", nargs="*", type=float, default=None, metavar="CAP",
        help="heterogeneous per-server capacities (e.g. 250 500 1000); "
             "overrides --servers and the even capacity split",
    )
    fleet.add_argument(
        "--policies", nargs="*", default=None,
        help="routing policies to compare (default: all registered)",
    )
    fleet.add_argument(
        "--balance-on", choices=["users", "utilisation"], default="users",
        help="load metric for least-loaded/power-of-two "
             "(utilisation = offloaded work / capacity; use on heterogeneous pools)",
    )
    fleet.add_argument(
        "--latency", choices=["none", "geo"], default="none",
        help="per-(user, server) RTT model fed to routing and accounting",
    )
    fleet.add_argument(
        "--latency-weight", type=float, default=0.0,
        help="how strongly load-aware policies weigh RTT against load",
    )
    fleet.add_argument(
        "--rtt-scale", type=float, default=0.1,
        help="geo model: RTT seconds per unit of distance on the unit square",
    )
    fleet.add_argument(
        "--mobility", choices=["corridor", "waypoint"], default=None,
        help="compare handover policies instead of routing policies: move "
             "users per tick under this mobility model and sweep "
             "speed x handover on E+T and migration debt",
    )
    fleet.add_argument(
        "--speed", nargs="*", type=float, default=None, metavar="SPEED",
        help="mobility sweep: user speeds in unit-square units per second "
             "(default: 0.02 0.08)",
    )
    fleet.add_argument(
        "--handover", nargs="*", default=None, metavar="POLICY",
        help="handover policies to compare (never / nearest / predictive; "
             "'nearest:0.5' overrides the hysteresis for that arm; "
             "default: all registered)",
    )
    fleet.add_argument(
        "--hysteresis", type=float, default=0.1,
        help="nearest handover: RTT-gap margin a move must beat",
    )
    fleet.add_argument(
        "--ticks", type=int, default=24,
        help="mobility sweep: fleet ticks per (speed, handover) cell",
    )
    fleet.add_argument(
        "--rebalance", choices=["off", "free", "cost-aware", "proactive"],
        default="off",
        help="post-replay rebalancing pass: 'free' flattens unconditionally, "
             "'cost-aware' only moves when the modelled gain beats the "
             "migration cost, 'proactive' drains servers whose forecasted "
             "utilisation breaches the threshold (all charge every move)",
    )
    fleet.add_argument(
        "--sla", type=float, default=None, metavar="DEADLINE",
        help="attach a per-user SLA deadline (scalarised E+T budget) to "
             "every arrival; admission filters servers that would breach it",
    )
    fleet.add_argument(
        "--sla-action", choices=["degrade", "reject"], default="degrade",
        help="what to do with a user no server can serve within the "
             "deadline: degrade to all-local (default) or reject outright",
    )
    fleet.add_argument(
        "--forecaster", choices=["naive", "ewma", "ar", "auto"], default="ewma",
        help="per-series forecaster feeding the fleet telemetry "
             "('auto' picks the lowest-MAE model per series)",
    )
    fleet.add_argument(
        "--horizon", type=int, default=3,
        help="proactive rebalancing: forecast horizon in fleet ticks",
    )
    fleet.add_argument(
        "--utilisation-threshold", type=float, default=0.8,
        help="proactive rebalancing: forecasted utilisation above this "
             "marks a server as a predicted hotspot",
    )
    fleet.add_argument(
        "--handoff-latency", type=float, default=0.05,
        help="migration cost model: control-plane delay charged per move",
    )
    fleet.add_argument(
        "--max-users-per-server", type=int, default=None,
        help="admission cap per server (beyond it users degrade to all-local)",
    )
    fleet.add_argument(
        "--strategy", choices=["spectral", "maxflow", "kl"], default="spectral"
    )
    fleet.add_argument("--rate", type=float, default=200.0, help="Poisson arrival rate")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--smoke", action="store_true",
        help="tiny fast path (16 requests, 4 apps of 30 functions, 4 servers) for CI",
    )

    cont = sub.add_parser(
        "contention-bench",
        help="compare contention-blind, contention-aware and best-response "
             "planning on a shared wireless channel",
    )
    cont.add_argument(
        "--users", nargs="*", type=int, default=None, metavar="N",
        help="co-offloading user counts to sweep (default: 1 2 4 6 8)",
    )
    cont.add_argument(
        "--channel-capacity", type=float, default=None,
        help="total shared-channel capacity in data units/s "
             "(default: the profile's per-device bandwidth)",
    )
    cont.add_argument(
        "--quality-spread", type=float, default=0.0,
        help="per-user channel-gain spread in [0, 1): gains drawn from "
             "[1-s, 1+s] deterministically per seed (0 = identical links)",
    )
    cont.add_argument(
        "--algorithm", choices=["spectral", "maxflow", "kl"], default="spectral"
    )
    cont.add_argument("--profile", choices=["quick", "paper"], default="quick")
    cont.add_argument("--seed", type=int, default=0)
    cont.add_argument("--json", action="store_true", help="emit rows as JSON")

    lint = sub.add_parser(
        "lint", help="run the static-analysis battery (also: repro-lint)"
    )
    from repro.analysis.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _profile(name: str):
    return paper_profile() if name == "paper" else quick_profile()


def _single_user_mec(graph_path: Path, seed: int, server_capacity: float):
    graph = load_graph_json(graph_path)
    app = call_graph_from_weighted_graph(graph, unoffloadable_fraction=0.05, seed=seed)
    device = MobileDevice("user", profile=quick_profile().device)
    system = MECSystem(EdgeServer(server_capacity), [UserContext(device, app)])
    return system, app


def cmd_table1(args: argparse.Namespace) -> int:
    if args.sizes:
        profile = quick_profile()
        configs = [
            NetgenConfig(n_nodes=s, n_edges=profile.edges_for(s), seed=args.seed + i)
            for i, s in enumerate(args.sizes)
        ]
    else:
        configs = paper_network_configs(args.seed)
    rows = run_table1(configs)
    print(
        render_table(
            ["Network", "fn", "edges", "fn after", "edges after", "reduction"],
            [
                [
                    r.network,
                    r.function_number,
                    r.edge_number,
                    r.function_number_after,
                    r.edge_number_after,
                    f"{100 * r.node_reduction:.1f}%",
                ]
                for r in rows
            ],
        )
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    profile = _profile(args.profile)
    if args.family == "timing":
        rows = run_timing_experiment(profile, repeats=args.repetitions or 3)
        print(
            render_table(
                ["algorithm", "graph size", "seconds"],
                [[r.algorithm, r.graph_size, r.seconds] for r in rows],
            )
        )
        return 0
    if args.family == "single-user":
        rows = run_single_user_energy_experiment(
            profile, repetitions=args.repetitions or 5
        )
        scale = "graph size"
    else:
        rows = run_multiuser_energy_experiment(
            profile, repetitions=args.repetitions or 2
        )
        scale = "users"
    print(
        render_table(
            ["algorithm", scale, "local E", "tx E", "total E", "total T"],
            [
                [r.algorithm, r.scale, r.local_energy, r.transmission_energy,
                 r.total_energy, r.total_time]
                for r in rows
            ],
        )
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = NetgenConfig(n_nodes=args.nodes, n_edges=args.edges, seed=args.seed)
    graph = netgen_graph(config)
    save_graph_json(graph, args.out)
    print(f"wrote {graph.node_count} nodes / {graph.edge_count} edges to {args.out}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    system, app = _single_user_mec(args.graph, args.seed, args.server_capacity)
    planner = make_planner(args.strategy)
    result = planner.plan_system(system, {"user": app})
    print(result.summary())
    plan = result.user_plans["user"]
    print(
        f"compression: {plan.original_nodes} -> {plan.compressed_nodes} nodes; "
        f"cut total {plan.total_cut_value:.1f}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    system, app = _single_user_mec(args.graph, args.seed, args.server_capacity)
    planner = make_planner(args.strategy)
    result = planner.plan_system(system, {"user": app})
    apps = {"user": PartitionedApplication("user", app, result.user_plans["user"].parts)}

    faults = []
    if args.server_fault:
        try:
            time_text, factor_text = args.server_fault.split(":")
            faults.append(
                ServerDegradation(time=float(time_text), factor=float(factor_text))
            )
        except ValueError as exc:
            print(f"error: bad --server-fault {args.server_fault!r}: {exc}", file=sys.stderr)
            return 2

    report = simulate_scheme(system, apps, result.greedy.remote_parts, faults=faults)
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=2))
        return 0
    timeline = report.timeline("user")
    print(result.summary())
    print(
        render_table(
            ["metric", "value"],
            [
                ["local finish (s)", timeline.local_finish],
                ["upload finish (s)", timeline.upload_finish],
                ["service finish (s)", timeline.service_finish],
                ["completion (s)", timeline.completion],
                ["energy (J)", timeline.energy],
                ["makespan (s)", report.makespan],
                ["server utilization", report.server_utilization],
                ["events processed", report.events_processed],
            ],
        )
    )
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    from repro.compression import GraphCompressor, compression_quality

    graph = load_graph_json(args.graph)
    result = GraphCompressor().compress(graph)
    compressed = result.compressed
    quality = compression_quality(graph, compressed)
    print(
        render_table(
            ["metric", "value"],
            [
                ["nodes", f"{graph.node_count} -> {compressed.graph.node_count}"],
                ["edges", f"{graph.edge_count} -> {compressed.graph.edge_count}"],
                ["node reduction", f"{100 * quality['node_reduction']:.1f}%"],
                ["internalized traffic", f"{100 * quality['internalized_traffic']:.1f}%"],
                ["modularity", quality["modularity"]],
                ["propagation rounds", result.rounds_total],
            ],
        )
    )
    if args.dot is not None:
        from repro.graphs.dot import clustering_to_dot

        args.dot.write_text(clustering_to_dot(graph, compressed.clusters))
        print(f"wrote clustering DOT to {args.dot}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.claims import verify_claims

    ledger = verify_claims(_profile(args.profile))
    print(
        render_table(
            ["claim", "statement", "verdict", "evidence"],
            [
                [
                    c.claim_id,
                    c.statement,
                    "PASS" if c.passed else "FAIL",
                    c.detail,
                ]
                for c in ledger
            ],
        )
    )
    failures = [c for c in ledger if not c.passed]
    print(f"\n{len(ledger) - len(failures)}/{len(ledger)} claims reproduced")
    return 1 if failures else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_markdown_report

    document = generate_markdown_report(
        _profile(args.profile), include_timing=not args.no_timing
    )
    if args.out is not None:
        args.out.write_text(document)
        print(f"wrote report to {args.out}")
    else:
        print(document)
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import find_crossover, run_sensitivity_experiment

    rows = run_sensitivity_experiment(
        args.parameter, graph_size=args.graph_size, algorithm=args.algorithm
    )
    print(
        render_table(
            ["parameter", "x default", "value", "offloaded %", "local E", "tx E", "total E"],
            [
                [
                    r.parameter,
                    r.multiplier,
                    r.value,
                    f"{100 * r.offloaded_fraction:.1f}%",
                    r.local_energy,
                    r.transmission_energy,
                    r.total_energy,
                ]
                for r in rows
            ],
        )
    )
    crossover = find_crossover(rows)
    if crossover is not None:
        print(f"\noffloading collapses at {crossover}x the default {args.parameter}")
    else:
        print("\noffloading survives the whole sweep")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.service import PlanService, ServiceConfig, plan_digest
    from repro.utils.timer import Stopwatch
    from repro.workloads.multiuser import build_mec_system
    from repro.workloads.traces import replay_arrivals

    if args.smoke:
        args.requests, args.pool, args.graph_size, args.workers = 24, 4, 40, 2

    profile = dataclasses.replace(
        quick_profile(),
        distinct_graphs=args.pool,
        multiuser_graph_size=args.graph_size,
        seed=2019 + args.seed,
    )
    workload = build_mec_system(args.requests, profile)
    # Fresh graph objects per request: identity caching cannot help, only
    # the service's content fingerprints can.
    arrivals = replay_arrivals(workload, rate=args.rate, seed=args.seed)

    planner = make_planner(args.strategy)
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        max_batch=args.batch,
        cache_capacity=args.cache_capacity,
        spill_path=str(args.spill) if args.spill is not None else None,
    )
    watch = Stopwatch()
    with PlanService(planner, config) as service:
        with watch:
            tickets = [service.submit(graph) for _, graph in arrivals]
            responses = [ticket.result() for ticket in tickets]
        invocations = service.planner_invocations
        report = service.metrics_report()
        cached_digests = {}
        for app in workload.distinct_graphs:
            response = service.plan(app)
            if response.ok:
                cached_digests[app.app_name] = plan_digest(response.plan)

    ok = sum(1 for r in responses if r.ok)
    shed = sum(1 for r in responses if r.error is not None and r.error.code == "shed")
    errored = len(responses) - ok - shed
    hit_rate = 0.0 if ok == 0 else max(0.0, 1.0 - invocations / ok)

    # Parity check: a cold plan of each pool app (planned fresh by a
    # separate planner) must serialise byte-identically to what the
    # service answered from its cache.
    parity_planner = make_planner(args.strategy)
    identical = sum(
        1
        for app in workload.distinct_graphs
        if cached_digests.get(app.app_name) == plan_digest(parity_planner.plan_user(app))
    )

    throughput = len(responses) / watch.elapsed if watch.elapsed > 0 else 0.0
    print(
        f"serve-bench: {len(responses)} requests over "
        f"{args.pool} distinct apps ({args.graph_size} functions), "
        f"{args.workers} workers"
    )
    print(report)
    print(
        f"requests ok/shed/errored: {ok}/{shed}/{errored}; "
        f"throughput {throughput:.1f} req/s"
    )
    latency = service.metrics.histogram("request_latency_seconds")
    print(
        f"request latency p50/p95: "
        f"{1000 * latency.percentile(0.50):.2f}ms/{1000 * latency.percentile(0.95):.2f}ms"
    )
    print(f"service hit rate: {hit_rate:.3f} (planner invocations: {invocations})")
    print(f"plan parity: cached == cold for {identical}/{len(workload.distinct_graphs)} apps")
    if args.spill is not None:
        print(f"spilled plan cache to {args.spill}")
    return 0


def cmd_serve_http(args: argparse.Namespace) -> int:
    from repro.service import HttpFrontendThread, PlanService, ServiceConfig

    planner = make_planner(args.strategy)
    config = ServiceConfig(
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        spill_path=str(args.spill) if args.spill is not None else None,
    )
    with PlanService(planner, config) as service:
        frontend = HttpFrontendThread(service, host=args.host, port=args.port)
        port = frontend.start()
        try:
            # The banner sits inside the try: a SIGINT that lands while it
            # prints still takes the graceful shutdown path.
            print(f"plan service listening on http://{args.host}:{port}")
            print("POST /plan | POST /submit | GET /result/<id> | GET /metrics | GET /healthz")
            frontend.join()  # serve until interrupted
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            frontend.close()
    return 0


def _fleet_mobility_bench(args: argparse.Namespace, profile) -> int:
    """``fleet-bench --mobility``: speed x handover sweep over a moving fleet."""
    from repro.experiments.fleet import run_fleet_mobility_experiment
    from repro.fleet.migration import MigrationCostModel
    from repro.mobility import HANDOVER_POLICIES

    handovers = args.handover or list(HANDOVER_POLICIES)
    unknown = sorted(
        {spec.partition(":")[0] for spec in handovers} - set(HANDOVER_POLICIES)
    )
    if unknown:
        print(
            f"error: unknown handover policies {unknown}; "
            f"expected from {list(HANDOVER_POLICIES)}",
            file=sys.stderr,
        )
        return 2
    speeds = tuple(args.speed) if args.speed else (0.02, 0.08)
    comparison = run_fleet_mobility_experiment(
        n_users=args.requests,
        n_servers=args.servers,
        profile=profile,
        mobility=args.mobility,
        speeds=speeds,
        handovers=handovers,
        ticks=args.ticks,
        hysteresis=args.hysteresis,
        horizon=args.horizon,
        rtt_scale=args.rtt_scale,
        strategy=args.strategy,
        rate=args.rate,
        seed=args.seed,
        migration=MigrationCostModel(handoff_latency=args.handoff_latency),
        forecaster=args.forecaster,
    )
    print(
        f"fleet-bench --mobility {args.mobility}: {args.requests} users, "
        f"{args.servers} stations, {args.ticks} ticks per cell"
    )
    print(
        render_table(
            ["handover", "speed", "users", "moves", "mean rtt",
             "migration", "E", "T", "E+T", "mean E+T"],
            [
                [
                    row.handover,
                    f"{row.speed:g}",
                    row.users,
                    row.handovers,
                    f"{row.mean_rtt:.3f}",
                    f"{row.migration_cost:.2f}",
                    f"{row.energy:.2f}",
                    f"{row.time:.2f}",
                    f"{row.combined:.2f}",
                    f"{row.mean_combined:.2f}",
                ]
                for row in comparison.rows
            ],
        )
    )
    for speed in comparison.speeds:
        best = min(
            (row for row in comparison.rows if row.speed == speed),
            key=lambda row: row.mean_combined,
        )
        print(
            f"speed {speed:g}: best handover policy {best.handover!r} "
            f"(mean E+T {best.mean_combined:.2f}, {best.handovers} moves)"
        )
    return 0


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.experiments.fleet import run_fleet_routing_experiment
    from repro.fleet.latency import make_latency_map
    from repro.fleet.migration import MigrationCostModel
    from repro.fleet.routing import ROUTING_POLICIES

    if args.smoke:
        args.requests, args.pool, args.graph_size, args.servers = 16, 4, 30, 4

    policies = args.policies or list(ROUTING_POLICIES)
    unknown = sorted(set(policies) - set(ROUTING_POLICIES))
    if unknown:
        print(
            f"error: unknown routing policies {unknown}; "
            f"expected from {list(ROUTING_POLICIES)}",
            file=sys.stderr,
        )
        return 2

    profile = dataclasses.replace(
        quick_profile(),
        distinct_graphs=args.pool,
        multiuser_graph_size=args.graph_size,
        seed=2019 + args.seed,
    )
    if args.mobility:
        return _fleet_mobility_bench(args, profile)
    comparison = run_fleet_routing_experiment(
        n_users=args.requests,
        n_servers=args.servers,
        profile=profile,
        policies=policies,
        strategy=args.strategy,
        rate=args.rate,
        seed=args.seed,
        max_users_per_server=args.max_users_per_server,
        capacities=args.capacities,
        balance_on=args.balance_on,
        latency=(
            make_latency_map(
                args.latency,
                seconds_per_unit=args.rtt_scale,
                seed=args.seed,
            )
            if args.latency != "none"
            else None
        ),
        latency_weight=args.latency_weight,
        migration=MigrationCostModel(handoff_latency=args.handoff_latency),
        rebalance=args.rebalance,
        sla_deadline=args.sla,
        sla_action=args.sla_action,
        forecaster=args.forecaster,
        horizon=args.horizon,
        utilisation_threshold=args.utilisation_threshold,
    )
    single = comparison.single
    n_servers = len(args.capacities) if args.capacities else args.servers
    pool_desc = (
        f"{n_servers} servers (capacities "
        + "/".join(f"{c:g}" for c in args.capacities) + ")"
        if args.capacities
        else f"{args.servers} servers"
    )
    print(
        f"fleet-bench: {args.requests} requests over {args.pool} distinct apps "
        f"({args.graph_size} functions), {pool_desc}"
    )
    print(
        render_table(
            ["policy", "servers", "users", "degraded", "max/mean", "util",
             "hit rate", "moves", "sla viol", "E", "T", "E+T", "vs single"],
            [
                [
                    row.policy,
                    row.servers,
                    row.users,
                    row.degraded,
                    f"{row.imbalance:.2f}",
                    f"{row.utilisation_imbalance:.2f}",
                    f"{row.hit_rate:.3f}",
                    row.moves,
                    f"{row.sla_violation_rate:.3f}",
                    f"{row.energy:.2f}",
                    f"{row.time:.2f}",
                    f"{row.combined:.2f}",
                    f"{row.vs_single:.3f}",
                ]
                for row in [*comparison.rows, single]
            ],
        )
    )
    print(
        f"single server (equal total capacity): E+T {single.combined:.2f}, "
        f"hit rate {single.hit_rate:.3f}"
    )
    if args.rebalance != "off":
        total_moves = sum(row.moves for row in comparison.rows)
        total_charged = sum(row.migration_cost for row in comparison.rows)
        print(
            f"rebalance ({args.rebalance}): {total_moves} moves across policies, "
            f"E+T {total_charged:.2f} charged as migration cost"
        )
    if args.sla is not None:
        total_violations = sum(row.sla_violations for row in comparison.rows)
        total_rejections = sum(row.sla_rejections for row in comparison.rows)
        print(
            f"sla (deadline {args.sla:g}, {args.sla_action}): "
            f"{total_violations} violations and {total_rejections} rejections "
            f"across policies"
        )
    return 0


def cmd_contention_bench(args: argparse.Namespace) -> int:
    from repro.experiments.contention import run_contention_experiment

    user_counts = tuple(args.users) if args.users else (1, 2, 4, 6, 8)
    rows, curve = run_contention_experiment(
        profile=_profile(args.profile),
        user_counts=user_counts,
        algorithm=args.algorithm,
        channel_capacity=args.channel_capacity,
        quality_spread=args.quality_spread,
        seed=args.seed,
    )
    if args.json:
        import json as _json

        import dataclasses

        print(
            _json.dumps(
                {
                    "rows": [dataclasses.asdict(r) for r in rows],
                    "curve": [dataclasses.asdict(p) for p in curve],
                },
                indent=2,
            )
        )
        return 0
    print(
        render_table(
            ["users", "b_i(n)", "per-user e_t", "per-user t_t"],
            [
                [p.n_users, p.effective_rate, p.transmission_energy, p.transmission_time]
                for p in curve
            ],
        )
    )
    print()
    print(
        render_table(
            ["arm", "users", "planned E+T", "channel E+T", "sim E", "sim T", "offloaders"],
            [
                [
                    r.arm,
                    r.n_users,
                    r.planned_combined,
                    r.evaluated_combined,
                    r.simulated_energy,
                    r.simulated_completion,
                    r.offloaders,
                ]
                for r in rows
            ],
        )
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as run_lint

    return run_lint(args)


_COMMANDS = {
    "table1": cmd_table1,
    "figures": cmd_figures,
    "generate": cmd_generate,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "report": cmd_report,
    "sensitivity": cmd_sensitivity,
    "compress": cmd_compress,
    "verify": cmd_verify,
    "serve-bench": cmd_serve_bench,
    "serve-http": cmd_serve_http,
    "fleet-bench": cmd_fleet_bench,
    "contention-bench": cmd_contention_bench,
    "lint": cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
