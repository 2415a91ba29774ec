"""Multi-server edge fleet: routing, sharded admission, and failover.

The paper's COPMECS model assumes one edge server ``S``; this package
scales it horizontally while keeping every per-server result exactly
the paper's model.  Six pieces:

* :mod:`repro.fleet.routing` — pluggable user→server policies:
  round-robin, least-loaded, power-of-two-choices, and
  fingerprint-affinity consistent hashing (structurally identical apps
  land on the same server and hit its plan cache); the load-aware
  policies balance on user counts or on utilisation (for heterogeneous
  capacities) and can weigh per-user RTT into the choice;
* :mod:`repro.fleet.latency` — per-(user, server) RTT maps (zero,
  static, geo-positional) threaded through routing snapshots and into
  waiting-time accounting;
* :mod:`repro.fleet.migration` — pricing of user moves between servers
  (re-transmit offloaded input data at the link rate plus a handoff
  latency); rebalancing is cost-aware and every move is charged;
* :mod:`repro.fleet.modelled` — the modelled costs behind cost-aware
  rebalancing gains and SLA admission feasibility, both asked of the
  server's own ledger (one modelled-latency path, no drift);
* :mod:`repro.fleet.fleet` — :class:`EdgeFleet`, holding one
  :class:`~repro.mec.online.OnlinePlanner` and
  :class:`~repro.service.plan_cache.PlanCache` per server — the planner
  is the server's only ledger of users, placements and prices —
  fleet-wide :class:`~repro.mec.system.SystemConsumption` aggregation,
  rebalancing, and degraded-user retry;
* :mod:`repro.fleet.failover` — server-outage handling
  (:class:`~repro.simulation.faults.ServerOutage`): drain, re-admit on
  survivors (charged as migrations), degraded all-local fallback when
  no capacity remains, revival via :meth:`EdgeFleet.revive_server`.

The fleet also builds on :mod:`repro.forecast` (a leaf package) for the
temporal dimension: per-user :class:`~repro.forecast.sla.UserSLA`
deadlines accepted at :meth:`EdgeFleet.admit` (routing as constrained
placement), per-server/per-link telemetry recorded on every tick, and
``EdgeFleet.rebalance(proactive=True, horizon=h)`` moving users off
servers whose *forecasted* utilisation breaches threshold.

``python -m repro fleet-bench`` replays an arrival trace over the fleet
and compares routing policies on load balance, cache hit rate and
``E + T`` against a single server of equal total capacity.
"""

from repro.fleet.failover import FailoverReport, apply_outages, handle_outage
from repro.fleet.fleet import (
    EdgeFleet,
    FleetAdmission,
    FleetServer,
    FleetStats,
    TickReport,
    all_local_breakdown,
)
from repro.fleet.latency import (
    LATENCY_MODELS,
    GeoLatencyMap,
    LatencyMap,
    StaticLatencyMap,
    ZeroLatency,
    make_latency_map,
)
from repro.fleet.migration import MigrationCost, MigrationCostModel
from repro.fleet.modelled import hypothetical_consumption, modelled_user_cost
from repro.fleet.routing import (
    BALANCE_METRICS,
    ROUTING_POLICIES,
    FingerprintAffinityRouting,
    ForecastRouting,
    LeastLoadedRouting,
    PowerOfTwoRouting,
    RoundRobinRouting,
    RoutingPolicy,
    ServerLoad,
    make_routing_policy,
)

__all__ = [
    "RoutingPolicy",
    "RoundRobinRouting",
    "LeastLoadedRouting",
    "PowerOfTwoRouting",
    "FingerprintAffinityRouting",
    "ForecastRouting",
    "ServerLoad",
    "ROUTING_POLICIES",
    "BALANCE_METRICS",
    "make_routing_policy",
    "LatencyMap",
    "ZeroLatency",
    "StaticLatencyMap",
    "GeoLatencyMap",
    "LATENCY_MODELS",
    "make_latency_map",
    "MigrationCost",
    "MigrationCostModel",
    "EdgeFleet",
    "FleetServer",
    "FleetAdmission",
    "FleetStats",
    "TickReport",
    "all_local_breakdown",
    "hypothetical_consumption",
    "modelled_user_cost",
    "FailoverReport",
    "handle_outage",
    "apply_outages",
]
