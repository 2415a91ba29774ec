"""Soak benchmark: sustained serving under app churn with bounded memory.

Not pytest-collected (``testpaths = ["tests"]``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_soak.py --smoke

Drives a long-lived :class:`~repro.service.PlanService` through many
rounds of plan requests.  Each round mixes a stable pool of popular
apps — exercising the plan cache — with freshly generated one-off apps
that churn the LRU cache.  A slice of every round is routed through the
HTTP frontend so the serving surface soaks alongside the worker
threads.

What it proves (and asserts, exiting non-zero on violation):

* every request over the whole horizon succeeds — no shed/error under
  sustained load, no worker-thread decay;
* plans stay deterministic: the digest of each stable app's plan never
  changes between rounds;
* resident memory is bounded: RSS growth from the post-warmup baseline
  to the final round stays under ``--rss-ceiling-mb`` despite churn.

Emits ``BENCH_soak.json``.  CI runs ``--smoke``; absolute throughput
numbers depend on the runner and are informational, only the invariants
above gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import urllib.request
from pathlib import Path

from repro.analysis.runtime import install_from_env
from repro.core import make_planner
from repro.service import (
    HttpFrontendThread,
    PlanService,
    ServiceConfig,
    graph_to_payload,
    plan_digest,
)
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import replay_arrivals


def rss_kib() -> int:
    """Current resident set size in KiB.

    ``/proc/self/statm`` gives the live value on Linux; the
    ``getrusage`` fallback reports the peak instead (still monotone, so
    the growth assertion stays meaningful, just more conservative).
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGESIZE") // 1024
    except (OSError, ValueError, IndexError):
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _http_round_trip(port: int, payload: dict) -> dict:
    """POST one /plan request to the frontend; return the decoded body."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/plan",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return json.loads(response.read().decode("utf-8"))


def run_soak(args: argparse.Namespace) -> dict:
    """Run the churn horizon; return the JSON payload (with verdicts)."""
    # With REPRO_LOCK_SANITIZER=1 every lock the serving stack creates
    # below this point is order-tracked; any observed lock-order
    # inversion fails the soak like any other invariant violation.
    sanitizer = install_from_env()

    profile = dataclasses.replace(
        quick_profile(),
        distinct_graphs=args.pool,
        multiuser_graph_size=args.graph_size,
        seed=2019 + args.seed,
    )
    stable_workload = build_mec_system(args.users, profile, graph_size=args.graph_size)

    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=4 * (args.users + args.churn) + 8,
        # Deliberately smaller than the distinct apps seen over the
        # horizon, so the plan cache keeps evicting — a leak shows up as
        # unbounded RSS.
        cache_capacity=args.pool + 2,
    )
    rounds: list[dict] = []
    plan_digests: dict[str, str] = {}
    http_requests = http_ok = 0
    failures: list[str] = []
    rss_samples: list[int] = []
    started = time.perf_counter()

    with (
        PlanService(make_planner(args.strategy), config) as service,
        HttpFrontendThread(service) as frontend,
    ):
        port = frontend.start()
        for round_index in range(args.rounds):
            arrivals = replay_arrivals(stable_workload, rate=200.0, seed=round_index)
            churn_profile = dataclasses.replace(
                profile,
                distinct_graphs=max(1, args.churn),
                seed=9000 + 17 * round_index + args.seed,
            )
            churn_workload = build_mec_system(
                max(1, args.churn), churn_profile, graph_size=args.graph_size
            )
            arrivals += replay_arrivals(churn_workload, seed=round_index)

            round_started = time.perf_counter()
            tickets = [(graph, service.submit(graph)) for _, graph in arrivals]
            ok = 0
            for graph, ticket in tickets:
                response = ticket.result(timeout=120.0)
                if not response.ok:
                    code = response.error.code if response.error else "unknown"
                    failures.append(f"round {round_index}: {graph.app_name} -> {code}")
                    continue
                ok += 1
                # Same request fingerprint must always yield the same
                # plan bits — even when cache eviction forced a
                # replan, possibly on a different worker thread.
                digest = plan_digest(response.plan) if response.plan else ""
                previous = plan_digests.setdefault(response.key, digest)
                if previous != digest:
                    failures.append(
                        f"round {round_index}: {graph.app_name} plan digest changed"
                    )

            # Route one stable app through the HTTP frontend each
            # round so the serving surface soaks too.
            http_graph = arrivals[round_index % len(arrivals)][1]
            http_requests += 1
            body = _http_round_trip(port, graph_to_payload(http_graph))
            if body.get("ok"):
                http_ok += 1
            else:
                failures.append(f"round {round_index}: HTTP plan failed: {body.get('error')}")

            round_seconds = time.perf_counter() - round_started
            sample = rss_kib()
            rss_samples.append(sample)
            rounds.append(
                {
                    "round": round_index,
                    "requests": len(tickets),
                    "ok": ok,
                    "seconds": round_seconds,
                    "plans_per_sec": len(tickets) / round_seconds if round_seconds else 0.0,
                    "rss_kib": sample,
                }
            )
        total_seconds = time.perf_counter() - started
        invocations = service.planner_invocations

    warmup = min(args.warmup_rounds, len(rss_samples) - 1)
    baseline_kib = rss_samples[warmup]
    final_kib = rss_samples[-1]
    growth_kib = final_kib - baseline_kib
    within_ceiling = growth_kib <= args.rss_ceiling_mb * 1024
    if not within_ceiling:
        failures.append(
            f"RSS grew {growth_kib} KiB from round {warmup} baseline "
            f"(ceiling {args.rss_ceiling_mb} MiB)"
        )

    sanitizer_report = None
    if sanitizer is not None:
        sanitizer_report = sanitizer.report()
        for inversion in sanitizer.inversions:
            failures.append(
                "lock-order inversion: "
                f"{inversion.first.outer} -> {inversion.first.inner} "
                f"reversed by {inversion.second.thread}"
            )

    total_requests = sum(entry["requests"] for entry in rounds)
    total_ok = sum(entry["ok"] for entry in rounds)
    return {
        "benchmark": "soak",
        "smoke": args.smoke,
        "config": {
            "rounds": args.rounds,
            "users": args.users,
            "pool": args.pool,
            "churn": args.churn,
            "graph_size": args.graph_size,
            "workers": args.workers,
            "strategy": args.strategy,
            "warmup_rounds": warmup,
            "rss_ceiling_mb": args.rss_ceiling_mb,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
        },
        "totals": {
            "requests": total_requests,
            "ok": total_ok,
            "seconds": total_seconds,
            "plans_per_sec": total_requests / total_seconds if total_seconds else 0.0,
            "planner_invocations": invocations,
            "distinct_fingerprints": len(plan_digests),
        },
        "http": {"requests": http_requests, "ok": http_ok},
        "rss": {
            "baseline_kib": baseline_kib,
            "final_kib": final_kib,
            "peak_kib": max(rss_samples),
            "growth_kib": growth_kib,
            "within_ceiling": within_ceiling,
        },
        "rounds": rounds,
        "lock_sanitizer": sanitizer_report,
        "failures": failures,
        "passed": not failures and total_ok == total_requests and http_ok == http_requests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Soak the plan-serving stack under churn.")
    parser.add_argument("--smoke", action="store_true", help="short horizon for CI")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--users", type=int, default=24, help="stable-pool requests per round")
    parser.add_argument("--pool", type=int, default=8, help="distinct stable apps")
    parser.add_argument("--churn", type=int, default=2, help="fresh one-off apps per round")
    parser.add_argument("--graph-size", type=int, default=100, help="functions per app")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--strategy", default="spectral")
    parser.add_argument("--warmup-rounds", type=int, default=2)
    parser.add_argument("--rss-ceiling-mb", type=int, default=192)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=Path("BENCH_soak.json"))
    args = parser.parse_args(argv)
    if args.smoke:
        args.rounds, args.users, args.pool = 6, 12, 4
        args.churn, args.graph_size = 1, 36

    payload = run_soak(args)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    totals, rss = payload["totals"], payload["rss"]
    print(
        f"soak: {totals['ok']}/{totals['requests']} plans ok "
        f"over {payload['config']['rounds']} rounds, "
        f"{totals['plans_per_sec']:.1f} plans/s sustained, "
        f"{payload['http']['ok']}/{payload['http']['requests']} HTTP round-trips ok"
    )
    print(
        f"rss: baseline {rss['baseline_kib'] / 1024:.1f} MiB, "
        f"final {rss['final_kib'] / 1024:.1f} MiB, "
        f"growth {rss['growth_kib'] / 1024:.1f} MiB "
        f"(ceiling {payload['config']['rss_ceiling_mb']} MiB, "
        f"{'within' if rss['within_ceiling'] else 'EXCEEDED'})"
    )
    for failure in payload["failures"]:
        print(f"FAILURE: {failure}", file=sys.stderr)
    print(f"wrote {args.output}")
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
