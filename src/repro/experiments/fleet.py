"""Fleet routing-policy comparison (extension beyond the paper).

Replays one arrival trace through an :class:`~repro.fleet.EdgeFleet`
once per routing policy and once through a *single* server of equal
total capacity, and reports what the fleet layer is supposed to deliver:
load balance (max/mean admitted users and max/mean utilisation),
aggregate plan-cache hit rate, and fleet-wide ``E + T`` relative to the
monolithic baseline.  The single-server row is the control: sharding
cannot beat one big server under the paper's capacity-sharing model, so
the interesting question is how little each policy gives up — and
fingerprint-affinity routing should give up (nearly) nothing on cache
hit rate.

Beyond the homogeneous comparison, the experiment sweeps the fleet
layer's geo/heterogeneity knobs: per-server *capacities* (routing on
utilisation rather than raw user counts — the resource-aware allocation
argument of arXiv:1604.02519), a *latency* map weighing proximity into
routing and waiting-time accounting, and a post-replay *rebalance* pass
(``"free"`` flattens unconditionally, ``"cost-aware"`` only moves when
the modelled gain beats the migration price, after arXiv:1605.08023's
state-movement costs; both charge every move into the fleet ledger).

With the :mod:`repro.forecast` subsystem the sweep also covers the
temporal knobs: a per-user SLA *deadline* (admission becomes constrained
placement and the report gains violation/rejection columns, with the
violation *rate* first-class), a *forecaster* feeding the fleet's
telemetry, and ``rebalance="proactive"`` draining servers whose
*forecasted* utilisation breaches a threshold instead of reacting to
observed spread.

:func:`run_fleet_mobility_experiment` adds the *spatial*-temporal axis
from :mod:`repro.mobility`: users move (random waypoint or vehicular
corridor), every link's RTT varies tick by tick, and a handover policy
decides when a worsening link is worth a priced migration.  The sweep
is speed × handover policy, and the headline column is the tick-mean
fleet ``E + T`` with migration debt folded in — ``never`` pays for
decaying links, naive ``nearest`` pays for churn, and the damped
policies (hysteresis / predictive) should undercut both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections.abc import Sequence

from repro.fleet.fleet import EdgeFleet
from repro.fleet.latency import GeoLatencyMap, LatencyMap
from repro.fleet.migration import MigrationCostModel
from repro.fleet.routing import (
    ROUTING_POLICIES,
    FingerprintAffinityRouting,
    make_routing_policy,
)
from repro.forecast.proactive import DEFAULT_UTILISATION_THRESHOLD
from repro.forecast.sla import UserSLA
from repro.mec.devices import MobileDevice
from repro.mobility import (
    HANDOVER_POLICIES,
    MobileLatencyMap,
    MobilityField,
    evenly_spaced_stations,
    make_handover_policy,
    make_mobility_model,
)
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import ExperimentProfile, quick_profile
from repro.workloads.traces import replay_arrivals

REBALANCE_MODES = ("off", "free", "cost-aware", "proactive")
"""Valid *rebalance* arguments for the experiment and the CLI."""


@dataclass(frozen=True)
class FleetPolicyRow:
    """One policy's outcome on the shared arrival trace."""

    policy: str
    servers: int
    users: int
    degraded: int
    imbalance: float
    """max/mean admitted users across servers (1.0 = perfectly even)."""

    hit_rate: float
    """Aggregate plan-cache hit rate across every server's cache."""

    energy: float
    time: float
    combined: float
    vs_single: float
    """``combined / single-server combined`` (1.0 = no sharding cost)."""

    utilisation_imbalance: float = 1.0
    """max/mean server utilisation — the balance metric that matters on
    heterogeneous pools."""

    moves: int = 0
    """Rebalance moves performed after the replay (0 when disabled)."""

    migration_cost: float = 0.0
    """Total ``E + T`` charged for those moves (and failover replays)."""

    sla_users: int = 0
    """Users admitted with an SLA deadline attached (0 = no SLA sweep)."""

    sla_violations: int = 0
    """SLA users whose final ledger cost breaches their deadline."""

    sla_rejections: int = 0
    """Users turned away at admission under ``on_infeasible="reject"``."""

    sla_violation_rate: float = 0.0
    """``violations / sla_users`` — the first-class SLA benchmark column."""


@dataclass(frozen=True)
class FleetRoutingComparison:
    """All policy rows plus the single-big-server control row."""

    rows: list[FleetPolicyRow]
    single: FleetPolicyRow


def _replay(
    fleet: EdgeFleet,
    arrivals: Sequence[tuple[str, object]],
    profile: ExperimentProfile,
    sla: UserSLA | None = None,
) -> None:
    devices = [
        (MobileDevice(user_id, profile=profile.device), graph)
        for user_id, graph in arrivals
    ]
    slas = (
        {device.device_id: sla for device, _ in devices} if sla is not None else None
    )
    fleet.admit_many(devices, slas=slas)


def run_fleet_routing_experiment(
    n_users: int = 48,
    n_servers: int = 4,
    profile: ExperimentProfile | None = None,
    policies: Sequence[str] = ROUTING_POLICIES,
    strategy: str = "spectral",
    rate: float = 200.0,
    seed: int = 0,
    max_users_per_server: int | None = None,
    *,
    capacities: Sequence[float] | None = None,
    balance_on: str = "users",
    latency: LatencyMap | None = None,
    latency_weight: float = 0.0,
    migration: MigrationCostModel | None = None,
    rebalance: str = "off",
    sla_deadline: float | None = None,
    sla_action: str = "degrade",
    forecaster: str = "ewma",
    horizon: int = 3,
    utilisation_threshold: float = DEFAULT_UTILISATION_THRESHOLD,
) -> FleetRoutingComparison:
    """Compare routing policies on one trace; include the 1-server control.

    The fleet's total capacity always equals the single server's —
    ``profile.server_capacity_per_user * n_users`` split evenly over
    *n_servers*, or ``sum(capacities)`` for a heterogeneous pool — so
    the comparison isolates the *sharding* cost from any provisioning
    difference.  *balance_on* selects the load metric of the load-aware
    policies (``"utilisation"`` is the heterogeneous-pool setting);
    *latency*/*latency_weight* thread a geo RTT model through routing
    and accounting; *rebalance* runs a post-replay rebalancing pass
    (``"free"`` unconditional, ``"cost-aware"`` migration-priced).

    *sla_deadline* attaches a :class:`~repro.forecast.sla.UserSLA` (in
    scalarised ``E + T``) to every arrival, *sla_action* picking what
    happens when no server is feasible; *forecaster* feeds each fleet's
    telemetry and ``rebalance="proactive"`` runs the forecast-driven
    rebalancer with *horizon*/*utilisation_threshold* instead of the
    reactive pass.
    """
    if rebalance not in REBALANCE_MODES:
        raise ValueError(
            f"unknown rebalance mode {rebalance!r}; "
            f"expected one of {list(REBALANCE_MODES)}"
        )
    profile = profile or quick_profile()
    workload = build_mec_system(n_users, profile)
    arrivals = replay_arrivals(workload, rate=rate, seed=seed)
    sla = (
        UserSLA(sla_deadline, on_infeasible=sla_action)
        if sla_deadline is not None
        else None
    )
    if capacities is not None:
        capacities = list(capacities)
        total_capacity = sum(capacities)
    else:
        total_capacity = profile.server_capacity_per_user * n_users

    def run(policy_name: str, servers: int, server_capacities: Sequence[float] | None) -> FleetPolicyRow:
        if server_capacities is not None:
            servers = len(server_capacities)
        fleet = EdgeFleet(
            servers,
            total_capacity / servers,
            capacities=server_capacities,
            strategy=strategy,
            routing=make_routing_policy(
                policy_name,
                seed=seed,
                balance_on=balance_on,
                latency_weight=latency_weight,
            ),
            max_users_per_server=max_users_per_server,
            latency=latency,
            migration=migration,
            forecaster=forecaster,
        )
        _replay(fleet, arrivals, profile, sla=sla)
        moves = 0
        if rebalance == "proactive":
            moves = fleet.rebalance(
                proactive=True,
                horizon=horizon,
                utilisation_threshold=utilisation_threshold,
            )
        elif rebalance != "off":
            moves = fleet.rebalance(cost_aware=rebalance == "cost-aware")
        consumption = fleet.total_consumption()
        stats = fleet.stats()
        sla_report = fleet.sla_report()
        migration_hist = fleet.metrics.histogram("fleet_migration_cost")
        return FleetPolicyRow(
            policy=policy_name,
            servers=servers,
            users=stats.users,
            degraded=stats.degraded_users,
            imbalance=stats.imbalance,
            hit_rate=stats.cache_hit_rate,
            energy=consumption.energy,
            time=consumption.time,
            combined=consumption.combined(),
            vs_single=0.0,
            utilisation_imbalance=stats.utilisation_imbalance,
            moves=moves,
            migration_cost=migration_hist.mean * migration_hist.count,
            sla_users=sla_report.users,
            sla_violations=sla_report.violations,
            sla_rejections=sla_report.rejections,
            sla_violation_rate=sla_report.violation_rate,
        )

    single = run("round-robin", 1, None)
    single = dataclasses.replace(single, policy="single", vs_single=1.0)
    rows = [
        dataclasses.replace(
            row, vs_single=row.combined / single.combined if single.combined else 0.0
        )
        for row in (run(name, n_servers, capacities) for name in policies)
    ]
    return FleetRoutingComparison(rows=rows, single=single)


STATION_LAYOUTS = ("road", "geo")
"""Where the mobility sweep plants its server sites: ``"road"`` spaces
them evenly along the corridor (roadside units), ``"geo"`` reuses a
seeded :class:`~repro.fleet.latency.GeoLatencyMap` placement via
:meth:`~repro.mobility.field.MobilityField.from_geo`."""


@dataclass(frozen=True)
class FleetMobilityRow:
    """One (speed, handover policy) cell of the mobility sweep."""

    handover: str
    speed: float
    users: int
    handovers: int
    """Total handovers executed across the tick loop."""

    mean_rtt: float
    """Tick-mean of the mean owned-link RTT (the link-quality column)."""

    migration_cost: float
    """Total ``E + T`` charged into migration debt (churn column)."""

    energy: float
    time: float
    combined: float
    """Final-ledger fleet ``E + T`` (RTT and migration debt folded in)."""

    mean_combined: float
    """Tick-mean of the fleet ledger's combined ``E + T`` — the headline:
    a decaying link hurts it every tick, migration debt hurts it from
    the moment it is charged, so both failure modes show up here."""

    handover_sequence: tuple[tuple[int, str, str, str], ...] = ()
    """Every executed handover as ``(tick, user, source, target)`` — the
    determinism witness: same seed, same sequence."""


@dataclass(frozen=True)
class FleetMobilityComparison:
    """All (speed × handover policy) rows of one mobility sweep."""

    rows: list[FleetMobilityRow]
    speeds: tuple[float, ...]
    handovers: tuple[str, ...]

    def row(self, speed: float, handover: str) -> FleetMobilityRow:
        for row in self.rows:
            if row.speed == speed and row.handover == handover:
                return row
        raise KeyError(f"no row for speed={speed}, handover={handover!r}")


def run_fleet_mobility_experiment(
    n_users: int = 12,
    n_servers: int = 4,
    profile: ExperimentProfile | None = None,
    *,
    mobility: str = "corridor",
    speeds: Sequence[float] = (0.02, 0.08),
    handovers: Sequence[str] = HANDOVER_POLICIES,
    ticks: int = 24,
    dt: float = 1.0,
    hysteresis: float = 0.1,
    threshold: float | None = None,
    horizon: int = 3,
    base_rtt: float = 0.0,
    rtt_scale: float = 2.0,
    lanes: int = 1,
    pause_time: float = 0.0,
    stations: str = "road",
    strategy: str = "spectral",
    rate: float = 200.0,
    seed: int = 0,
    latency_slack: float | None = 0.05,
    migration: MigrationCostModel | None = None,
    forecaster: str = "ewma",
    capacity_per_server: float | None = None,
) -> FleetMobilityComparison:
    """Sweep ``E + T`` and migration debt over speed × handover policy.

    Each cell replays the same arrival trace into a fresh fleet —
    affinity routing with *latency_slack* (cache stickiness now
    genuinely trades against a worsening link), a
    :class:`~repro.mobility.latency.MobileLatencyMap` over the chosen
    mobility model, and one handover policy — then runs *ticks* calls
    of :meth:`~repro.fleet.fleet.EdgeFleet.tick` with step *dt*.  The
    fleet ledger is sampled after every tick; the row reports the final
    and tick-mean combined ``E + T`` (migration debt included), total
    handovers and the charged migration cost, plus the full handover
    sequence so callers can assert seed-determinism.

    Entries in *handovers* are policy names with an optional per-row
    hysteresis override — ``"nearest:0"`` is the naive
    chase-the-nearest baseline, ``"nearest:0.15"`` a damped variant —
    so one sweep can hold naive and damped arms side by side; a bare
    name uses the sweep-wide *hysteresis*.

    *threshold* (predictive policy) defaults to 1.5× the worst
    nearest-station RTT on the road layout — a link predicted to get
    meaningfully worse than "you are between two stations" triggers the
    proactive switch.  *lanes* defaults to 1 so corridor vehicles drive
    on the station line; the sweep's geometry then has full RTT swing.
    *capacity_per_server* defaults to room for the whole population on
    every server: mobility is a *link* experiment, and an overfull
    server would re-couple it to the capacity axis.
    """
    if mobility not in ("corridor", "waypoint"):
        raise ValueError(f"unknown mobility model {mobility!r}")
    if stations not in STATION_LAYOUTS:
        raise ValueError(
            f"unknown station layout {stations!r}; "
            f"expected one of {list(STATION_LAYOUTS)}"
        )
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    profile = profile or quick_profile()
    workload = build_mec_system(n_users, profile)
    arrivals = replay_arrivals(workload, rate=rate, seed=seed)
    server_ids = [f"edge-{index:02d}" for index in range(n_servers)]
    if threshold is None:
        threshold = base_rtt + 1.5 * rtt_scale / (2 * n_servers)
    if capacity_per_server is None:
        capacity_per_server = profile.server_capacity_per_user * n_users

    def run_cell(speed: float, handover_spec: str) -> FleetMobilityRow:
        handover_name, _, override = handover_spec.partition(":")
        cell_hysteresis = float(override) if override else hysteresis
        model = make_mobility_model(
            mobility, speed=speed, pause_time=pause_time, lanes=lanes, seed=seed
        )
        if stations == "geo":
            field = MobilityField.from_geo(
                model, GeoLatencyMap(seed=seed), server_ids
            )
        else:
            field = MobilityField(model, evenly_spaced_stations(server_ids))
        fleet = EdgeFleet(
            n_servers,
            capacity_per_server,
            strategy=strategy,
            routing=FingerprintAffinityRouting(latency_slack=latency_slack),
            latency=MobileLatencyMap(
                field, base_rtt=base_rtt, seconds_per_unit=rtt_scale
            ),
            migration=migration,
            forecaster=forecaster,
            handover=make_handover_policy(
                handover_name,
                hysteresis=cell_hysteresis,
                threshold=threshold,
                horizon=horizon,
            ),
        )
        _replay(fleet, arrivals, profile)
        sequence: list[tuple[int, str, str, str]] = []
        combined_samples: list[float] = []
        rtt_samples: list[float] = []
        for _ in range(ticks):
            report = fleet.tick(dt)
            sequence.extend(
                (d.tick, d.user_id, d.source, d.target) for d in report.handovers
            )
            combined_samples.append(fleet.total_consumption().combined())
            owned = [
                fleet.latency.rtt(user_id, server_id)
                for server_id, server in sorted(fleet.servers.items())
                for user_id in server.admitted
            ]
            if owned:
                rtt_samples.append(sum(owned) / len(owned))
        consumption = fleet.total_consumption()
        migration_hist = fleet.metrics.histogram("fleet_migration_cost")
        return FleetMobilityRow(
            handover=handover_spec,
            speed=speed,
            users=fleet.stats().users,
            handovers=fleet.metrics.counter("fleet_handovers").value,
            mean_rtt=sum(rtt_samples) / len(rtt_samples) if rtt_samples else 0.0,
            migration_cost=migration_hist.mean * migration_hist.count,
            energy=consumption.energy,
            time=consumption.time,
            combined=consumption.combined(),
            mean_combined=sum(combined_samples) / len(combined_samples),
            handover_sequence=tuple(sequence),
        )

    rows = [
        run_cell(speed, handover_name)
        for speed in speeds
        for handover_name in handovers
    ]
    return FleetMobilityComparison(
        rows=rows, speeds=tuple(speeds), handovers=tuple(handovers)
    )
