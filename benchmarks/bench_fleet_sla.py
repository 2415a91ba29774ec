"""SLA benchmark: proactive vs reactive rebalancing on a hotspot trace.

Not pytest-collected (``testpaths = ["tests"]``) — run it directly:

    PYTHONPATH=src python benchmarks/bench_fleet_sla.py --smoke

The trace engineers the failure mode the forecast subsystem exists to
prevent.  A heterogeneous pool (two big servers, one tiny one) receives
one affinity-pinned hot application, so every arrival lands on the same
big server and its utilisation climbs tick by tick.  Which server owns
the hot app is up to the hash of its request key, so the bench asks a
probe fleet for the owner and gives the owner a big capacity, keeping
the tiny one elsewhere (:func:`arrange_capacities`); it then checks that
every arrival did land on the owner.  Every user carries
a :class:`~repro.forecast.sla.UserSLA` deadline calibrated from a solo
probe admission.  After each admission tick one arm rebalances
*reactively* (``cost_aware=False``: flatten user counts, blind to
capacity and deadlines — it happily parks users on the tiny server,
whose waiting times then blow their SLAs) and the other *proactively*
(``proactive=True``: drain the server whose *forecasted* utilisation
breaches the threshold, but only onto servers that stay under it and
remain SLA-feasible for the moved user — the tiny server is never a
destination).

Emits ``BENCH_fleet_sla.json`` with the violation *rate* per arm as the
first-class column.  Unlike the timing benchmarks, the headline claims
are asserted — they must hold at any scale, on any runner:

* the proactive arm's SLA-violation rate is *strictly lower* than the
  reactive arm's;
* at *equal-or-lower* total migration cost (every move in both arms is
  priced through the fleet's ``MigrationCostModel``).

``--smoke`` is accepted for CI symmetry with the other benchmarks; the
default workload is already tiny (seconds), so it changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.fleet import EdgeFleet, FingerprintAffinityRouting
from repro.forecast import UserSLA
from repro.mec.devices import MobileDevice
from repro.workloads import synthesize_application
from repro.workloads.profiles import quick_profile
from repro.workloads.traces import call_graph_from_dict, call_graph_to_dict


def fresh_graph(app):
    """An independent copy of *app* (each admission owns its graph)."""
    return call_graph_from_dict(call_graph_to_dict(app))


def calibrate_deadline(app, profile, capacity: float, margin: float) -> tuple[float, float]:
    """(solo cost, deadline): one user alone on one big server, scaled.

    The margin buys room for co-resident users, link charges and one
    migration; what it must *not* absorb is the waiting-time blow-up of
    an overloaded tiny server — that is the violation being measured.
    """
    probe = EdgeFleet(capacities=[capacity])
    probe.admit(MobileDevice("probe", profile=profile.device), fresh_graph(app))
    breakdown = probe.total_consumption().per_user["probe"]
    solo = probe.config.objective.combine(breakdown.energy, breakdown.time)
    return solo, margin * solo


def arrange_capacities(app, profile, capacities: list[float]) -> tuple[str, list[float]]:
    """(owner, capacities with the largest one on the hot app's owner).

    Affinity routing picks the owner from the request key and the server
    ids alone, so a probe fleet with as many servers names it; swapping
    the owner's capacity with the largest keeps the tiny trap server off
    the path every arrival takes.
    """
    probe = EdgeFleet(
        capacities=[1.0] * len(capacities), routing=FingerprintAffinityRouting()
    )
    owner = probe.admit(
        MobileDevice("probe", profile=profile.device), fresh_graph(app)
    ).server_id
    index = list(probe.servers).index(owner)
    arranged = list(capacities)
    biggest = arranged.index(max(arranged))
    arranged[index], arranged[biggest] = arranged[biggest], arranged[index]
    return owner, arranged


def run_arm(
    mode: str,
    app,
    profile,
    owner: str,
    capacities: list[float],
    n_users: int,
    ticks: int,
    deadline: float,
    forecaster: str,
    horizon: int,
    threshold: float,
) -> dict:
    """Replay the hotspot trace with one rebalancing discipline."""
    fleet = EdgeFleet(
        capacities=capacities,
        routing=FingerprintAffinityRouting(),
        forecaster=forecaster,
    )
    sla = UserSLA(deadline)
    per_tick = n_users // ticks
    admitted = 0
    for tick in range(ticks):
        batch = per_tick + (n_users % ticks if tick == ticks - 1 else 0)
        for _ in range(batch):
            admission = fleet.admit(
                MobileDevice(f"u{admitted}", profile=profile.device),
                fresh_graph(app),
                sla=sla,
            )
            if admission.server_id != owner:
                raise RuntimeError(
                    f"the hot app must land on its owner {owner}: user u{admitted} "
                    f"went to {admission.server_id}"
                )
            admitted += 1
        if mode == "reactive":
            fleet.rebalance(cost_aware=False)
        else:
            fleet.rebalance(
                proactive=True, horizon=horizon, utilisation_threshold=threshold
            )
    report = fleet.sla_report()
    migration = fleet.metrics.histogram("fleet_migration_cost")
    consumption = fleet.total_consumption()
    return {
        "mode": mode,
        "users": report.users,
        "violations": report.violations,
        "violation_rate": report.violation_rate,
        "worst_excess": report.worst_excess,
        "rejections": report.rejections,
        "degraded": fleet.stats().degraded_users,
        "moves": fleet.metrics.counter("fleet_migrations").value,
        "migration_cost": migration.mean * migration.count,
        "combined": consumption.combined(),
        "per_server_users": {
            server_id: server.users
            for server_id, server in sorted(fleet.servers.items())
        },
        "per_server_utilisation": {
            server_id: server.utilisation
            for server_id, server in sorted(fleet.servers.items())
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Proactive vs reactive rebalancing under per-user SLAs."
    )
    parser.add_argument("--smoke", action="store_true", help="accepted for CI symmetry")
    parser.add_argument("--users", type=int, default=12)
    parser.add_argument("--ticks", type=int, default=4, help="admission batches")
    parser.add_argument("--graph-size", type=int, default=30, help="functions per app")
    parser.add_argument(
        "--capacities",
        type=str,
        default="2000,120,2000",
        help="per-server capacities; the largest goes to the hot app's owner "
        "and the tiny one is the trap",
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=1.1,
        help="deadline = margin x solo probe cost",
    )
    parser.add_argument("--forecaster", default="auto")
    parser.add_argument("--horizon", type=int, default=3)
    parser.add_argument("--utilisation-threshold", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=2, help="hot-app synthesis seed")
    parser.add_argument("--output", type=Path, default=Path("BENCH_fleet_sla.json"))
    args = parser.parse_args(argv)

    capacities = [float(value) for value in args.capacities.split(",")]
    profile = dataclasses.replace(
        quick_profile(), distinct_graphs=4, multiuser_graph_size=args.graph_size
    )
    app = synthesize_application("hot", n_functions=args.graph_size, seed=args.seed)
    owner, capacities = arrange_capacities(app, profile, capacities)
    solo, deadline = calibrate_deadline(app, profile, max(capacities), args.margin)

    arms = {
        mode: run_arm(
            mode,
            app,
            profile,
            owner,
            capacities,
            args.users,
            args.ticks,
            deadline,
            args.forecaster,
            args.horizon,
            args.utilisation_threshold,
        )
        for mode in ("reactive", "proactive")
    }
    reactive, proactive = arms["reactive"], arms["proactive"]

    # The headline claims are asserted, not just recorded: forecasting
    # must strictly reduce the violation rate without paying more in
    # migrations, or the benchmark fails.
    if proactive["violation_rate"] >= reactive["violation_rate"]:
        raise RuntimeError(
            "proactive rebalancing must strictly lower the SLA-violation "
            f"rate: proactive {proactive['violation_rate']:.3f} vs "
            f"reactive {reactive['violation_rate']:.3f}"
        )
    if proactive["migration_cost"] > reactive["migration_cost"]:
        raise RuntimeError(
            "proactive rebalancing must not pay more in migrations: "
            f"proactive {proactive['migration_cost']:.2f} vs "
            f"reactive {reactive['migration_cost']:.2f}"
        )

    payload = {
        "benchmark": "fleet_sla",
        "smoke": args.smoke,
        "config": {
            "users": args.users,
            "ticks": args.ticks,
            "graph_size": args.graph_size,
            "capacities": capacities,
            "hot_owner": owner,
            "margin": args.margin,
            "forecaster": args.forecaster,
            "horizon": args.horizon,
            "utilisation_threshold": args.utilisation_threshold,
            "seed": args.seed,
        },
        "solo_cost": solo,
        "sla_deadline": deadline,
        "arms": arms,
        "violation_rate_drop": reactive["violation_rate"] - proactive["violation_rate"],
        "migration_cost_saving": reactive["migration_cost"] - proactive["migration_cost"],
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"deadline {deadline:.2f} (solo {solo:.2f} x margin {args.margin})")
    for mode in ("reactive", "proactive"):
        arm = arms[mode]
        print(
            f"{mode:>9}: viol rate {arm['violation_rate']:.3f} "
            f"({arm['violations']}/{arm['users']}), moves {arm['moves']}, "
            f"migration cost {arm['migration_cost']:.2f}, "
            f"users/server {list(arm['per_server_users'].values())}"
        )
    print(
        f"proactive lowers the violation rate by "
        f"{payload['violation_rate_drop']:.3f} and saves "
        f"{payload['migration_cost_saving']:.2f} in migration cost"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
