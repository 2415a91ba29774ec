"""The edge fleet: a pool of servers, each with its own planner and cache.

The paper (and every module below this one) models a *single* edge
server ``S``.  :class:`EdgeFleet` scales that model horizontally: each
:class:`FleetServer` is one paper-faithful deployment — an
:class:`~repro.mec.devices.EdgeServer` whose
:class:`~repro.mec.online.OnlinePlanner` is its one ledger of users,
placements and prices, plus a
:class:`~repro.service.plan_cache.PlanCache` — and a pluggable
:class:`~repro.fleet.routing.RoutingPolicy` decides which server admits
each arriving user.  Per-server results therefore remain exactly the
paper's COPMECS model; the fleet layer adds what the model cannot say:
load balance across heterogeneous servers, cache locality under
content-affine routing, geo-latency, cost-aware rebalancing, and
failover (see :mod:`repro.fleet.failover`).

Consumption aggregates across the fleet by merging per-user breakdowns:
user ids are fleet-unique, so the union of every server's
:class:`~repro.mec.system.SystemConsumption` *is* the fleet total, plus
the all-local consumption of users admitted in degraded mode (no server
had capacity for them).  Two fleet-only charges are folded into the
same ledger: each offloading user carries the RTT of the link they
actually use (:mod:`repro.fleet.latency`), and users who were migrated
between servers carry the accumulated migration cost
(:mod:`repro.fleet.migration`) in their transmission/waiting terms —
moves are never free.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from repro.callgraph.model import FunctionCallGraph
from repro.fleet.latency import LatencyMap, ZeroLatency
from repro.fleet.migration import MigrationCost, MigrationCostModel
from repro.fleet.modelled import charge_link_rtt, hypothetical_consumption, modelled_user_cost
from repro.fleet.routing import RoutingPolicy, RoundRobinRouting, ServerLoad
from repro.forecast.proactive import DEFAULT_UTILISATION_THRESHOLD, FleetTelemetry
from repro.forecast.sla import SLAReport, UserSLA
from repro.mec.admission import AllocationPolicy
from repro.mec.channel import SharedChannel
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.energy import ConsumptionBreakdown, price_user
from repro.mec.online import AdmissionRecord, OnlinePlanner, OnlineUser
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import SystemConsumption
from repro.service.fingerprint import request_fingerprint
from repro.service.metrics import MetricsRegistry
from repro.service.plan_cache import PlanCache

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.config import PlannerConfig
    from repro.core.results import CutStrategy, UserPlan
    from repro.mec.objective import ObjectiveWeights
    from repro.mobility.handover import HandoverDecision, HandoverPolicy


PLAN_CACHE_CAPACITY = 256
"""Bound on each server's plan cache, on the fleet's unplaced plans and
on its partitions."""


def all_local_breakdown(device: MobileDevice, graph: FunctionCallGraph) -> ConsumptionBreakdown:
    """Degraded-mode consumption: the whole application runs on-device.

    This is the paper's no-offloading baseline — :func:`price_user` with
    every function local — and the fleet's fallback when no server has
    capacity left.  Always finite: no transmission, no waiting.
    """
    return price_user(
        device, graph.total_computation(), 0.0, 0.0, device.bandwidth, 0.0, 0.0
    )


@dataclass
class _DegradedUser:
    """A user running all-local, retained so it can be re-admitted later.

    *key* and *plan* are whatever the failed admission had computed
    (``None`` when it stopped before fingerprinting or planning);
    :meth:`EdgeFleet.retry_degraded` re-admits with them instead of
    re-fingerprinting and re-planning the graph.
    """

    device: MobileDevice
    graph: FunctionCallGraph
    breakdown: ConsumptionBreakdown
    sla: UserSLA | None = None
    key: str | None = None
    plan: "UserPlan | None" = None


@dataclass(frozen=True)
class _Partition:
    """An application the fleet partitioned, with what it was built from:
    the plan, and the version of the call graph's
    :class:`~repro.graphs.weighted_graph.WeightedGraph` at build time."""

    version: int
    plan: "UserPlan"
    app: PartitionedApplication


@dataclass
class FleetAdmission:
    """Outcome of one fleet admission."""

    user_id: str
    server_id: str | None
    """The admitting server; ``None`` when the user fell back to local."""

    record: AdmissionRecord | None
    cache_hit: bool = False
    degraded: bool = False
    rejected: bool = False
    """SLA admission control turned the user away (``on_infeasible=
    "reject"`` and no feasible server); the user is not in the fleet."""


class FleetServer:
    """One edge server: its planner, which is its ledger, and its plan cache.

    Everything the fleet knows about the users on this server — device,
    graph, partitioned application, plan, remote parts, and the priced
    consumption of them all — lives in :attr:`planner`, once.  The server
    adds only what the planner must not know: the request key each user
    was admitted under, so that a user moved here fills this cache.
    """

    def __init__(
        self,
        server_id: str,
        server: EdgeServer,
        cut_strategy: "CutStrategy",
        config: "PlannerConfig | None" = None,
        allocation: AllocationPolicy | None = None,
        channel: SharedChannel | None = None,
    ) -> None:
        self.server_id = server_id
        self.server = server
        self.planner = OnlinePlanner(
            server, cut_strategy, config=config, allocation=allocation, channel=channel
        )
        self.cache = PlanCache(capacity=PLAN_CACHE_CAPACITY)
        self._keys: dict[str, str] = {}
        """Request key of each admitted user."""

    @property
    def admitted(self) -> Mapping[str, OnlineUser]:
        """The planner's users by id, in admission order."""
        return self.planner.users

    @property
    def users(self) -> int:
        return len(self.planner.users)

    @property
    def remote_load(self) -> float:
        """Total computation weight currently offloaded to this server,
        summed in admission order from the ledger's per-user weights."""
        return sum(user.weights[1] for user in self.planner.users.values())

    @property
    def utilisation(self) -> float:
        """remote_load / capacity (the heterogeneous balance metric)."""
        return self.remote_load / self.server.total_capacity

    def load(
        self, rtt: float = 0.0, predicted_utilisation: float | None = None
    ) -> ServerLoad:
        return ServerLoad(
            server_id=self.server_id,
            users=self.users,
            remote_load=self.remote_load,
            capacity=self.server.total_capacity,
            rtt=rtt,
            predicted_utilisation=predicted_utilisation,
        )

    def placement_of(self, user_id: str) -> tuple[PartitionedApplication, frozenset[int]]:
        """The user's partitioned app and currently-remote part ids."""
        user = self.planner.users[user_id]
        return user.app, user.remote

    def offloaded_data(self, user_id: str) -> float:
        """Data crossing the device/server boundary for *user_id*.

        This is the placement's cut weight — the offloaded input data a
        migration would have to re-transmit to a new server.
        """
        return self.planner.users[user_id].weights[2]

    def modelled_combined(
        self,
        weights: "ObjectiveWeights",
        *,
        without: str | None = None,
        extra: OnlineUser | None = None,
    ) -> float:
        """Hypothetical ``E + T`` of this server's deployment.

        Prices the current placements with *without* removed and/or
        *extra* (a user at its recorded placement, typically another
        server's) added — no ledger change, no greedy run.  This is the
        model behind cost-aware rebalancing: the gain of a move is the
        drop in the two affected servers' modelled totals.  An edited
        deployment is priced by
        :func:`repro.fleet.modelled.hypothetical_consumption`; the
        unedited one is the ledger's own price.
        """
        if without is None and extra is None:
            return self.current_consumption().combined(weights)
        return hypothetical_consumption(self, without=without, extra=extra).combined(
            weights
        )

    def admit(
        self,
        device: MobileDevice,
        graph: FunctionCallGraph,
        key: str,
        prepared: "tuple[UserPlan, PartitionedApplication] | None" = None,
    ) -> tuple[AdmissionRecord, bool]:
        """Admit one user, serving the plan from this server's cache.

        Returns ``(record, cache_hit)``.  A *prepared* plan and the
        application partitioned from it (made up front for an SLA
        feasibility check) stand in for planning only after a cache miss,
        so hit-rate statistics stay identical to planning inline;
        planning is deterministic, so the result is identical too.  On a
        hit the prepared application is still reused when the cached
        plan has the same parts.  With the prepared application, the
        planner commits the placement the SLA check's pricing on this
        server already made, unless the ledger changed since
        (:meth:`~repro.mec.online.OnlinePlanner.admit_partitioned`).
        """
        plan = self.cache.get(key)
        cache_hit = plan is not None
        if prepared is not None and (plan is None or plan.parts == prepared[0].parts):
            prepared_plan, app = prepared
            record = self.planner.admit_partitioned(
                device, app, prepared_plan if plan is None else plan
            )
        else:
            record = self.planner.admit(device, graph, plan=plan)
        self._keep(key, record)
        return record, cache_hit

    def place(self, user: OnlineUser, key: str) -> AdmissionRecord:
        """Admit a user moved here, with its recorded plan and application.

        A move is not a request: the cache lookup is skipped, so hit-rate
        statistics are not distorted, but the cache is still populated
        under the user's request *key* for future arrivals.
        """
        record = self.planner.admit_partitioned(user.device, user.app, user.plan)
        self._keep(key, record)
        return record

    def _keep(self, key: str, record: AdmissionRecord) -> None:
        self.cache.put(key, record.plan)
        self._keys[record.user_id] = key

    def evict(self, user_id: str) -> tuple[OnlineUser, str]:
        """Remove one user; return it with its request key.

        The planner re-places the survivors in admission order
        (:meth:`~repro.mec.online.OnlinePlanner.evict`), so they reclaim
        the evicted user's share of the server.
        """
        key = self._keys.pop(user_id, None)
        if key is None:
            raise KeyError(f"user {user_id!r} not admitted on {self.server_id!r}")
        return self.planner.evict(user_id), key

    def drain(self) -> list[tuple[OnlineUser, str]]:
        """Remove every admitted user; return each with its request key
        (outage path)."""
        keys, self._keys = self._keys, {}
        return [(user, keys[user.user_id]) for user in self.planner.clear()]

    def current_consumption(self) -> SystemConsumption:
        """The ledger's price of this server's deployment (empty when idle)."""
        if not self.planner.users:
            return SystemConsumption()
        return self.planner.current_consumption()


@dataclass
class TickReport:
    """Outcome of one :meth:`EdgeFleet.tick`: who handed over, at what price."""

    tick: int
    """The fleet's tick counter after this tick ran (1-based)."""

    dt: float
    """Simulated seconds the mobility field advanced by."""

    handovers: list["HandoverDecision"] = field(default_factory=list)
    """Executed handovers, in the (sorted-user) order they ran."""

    migration_cost: float = 0.0
    """Combined ``E + T`` charged into migration debt by this tick's moves."""

    @property
    def moves(self) -> int:
        return len(self.handovers)


@dataclass
class FleetStats:
    """Point-in-time fleet counters (see :meth:`EdgeFleet.stats`)."""

    servers: int
    users: int
    degraded_users: int
    cache_hits: int
    cache_misses: int
    per_server_users: dict[str, int] = field(default_factory=dict)
    per_server_utilisation: dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def imbalance(self) -> float:
        """max/mean admitted users across alive servers (1.0 = perfect)."""
        counts = list(self.per_server_users.values())
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean

    @property
    def utilisation_imbalance(self) -> float:
        """max/mean server utilisation — the balance metric that matters
        on heterogeneous pools, where equal user counts can still mean a
        drastically overloaded small server (1.0 = perfect)."""
        values = list(self.per_server_utilisation.values())
        if not values or sum(values) == 0:
            return 1.0
        mean = sum(values) / len(values)
        return max(values) / mean


class EdgeFleet:
    """A pool of edge servers behind one admission front-end.

    Servers are homogeneous by default (``n_servers`` servers of
    ``capacity_per_server`` each); pass *capacities* (one total capacity
    per server, e.g. ``[250, 500, 1000]``) for a heterogeneous pool.
    Every admission computes the request's content fingerprint, asks the
    routing policy for a target — each candidate's
    :class:`~repro.fleet.routing.ServerLoad` carries its utilisation and
    the requesting user's RTT from *latency* — and admits on that
    server, hitting its plan cache when a structurally identical app was
    seen there before.  ``max_users_per_server`` bounds admission; when
    every alive server is full (or the whole fleet is down), users are
    admitted *degraded*: they run fully locally, which is always
    feasible and keeps fleet totals finite.  Degraded users are retained
    and re-admitted by :meth:`retry_degraded` once capacity frees.

    *migration* prices every user move (rebalance, failover and
    handover moves) as re-transmission of the offloaded input data
    plus a handoff latency; the charges accumulate per user and surface
    in :meth:`total_consumption`.  Pass ``MigrationCostModel.free()``
    to restore the legacy moves-are-free accounting.

    Users move, too: with a time-varying *latency* map (a
    :class:`~repro.mobility.latency.MobileLatencyMap`) and a *handover*
    policy (:mod:`repro.mobility.handover`), :meth:`tick` advances
    simulated time — positions drift, every link's RTT is re-measured
    into the telemetry series, and the policy decides per user whether
    the worsening link is worth a priced handover.
    """

    def __init__(
        self,
        n_servers: int = 4,
        capacity_per_server: float = 500.0,
        *,
        capacities: Sequence[float] | None = None,
        strategy: str = "spectral",
        config: "PlannerConfig | None" = None,
        allocation: AllocationPolicy | None = None,
        routing: RoutingPolicy | None = None,
        max_users_per_server: int | None = None,
        latency: LatencyMap | None = None,
        migration: MigrationCostModel | None = None,
        forecaster: str | None = "ewma",
        handover: "HandoverPolicy | None" = None,
        channel: SharedChannel | None = None,
    ) -> None:
        from repro.core.baselines import make_planner

        if capacities is not None:
            per_server = list(capacities)
            if not per_server:
                raise ValueError("capacities must name at least one server")
        else:
            if n_servers < 1:
                raise ValueError(f"n_servers must be >= 1, got {n_servers}")
            per_server = [capacity_per_server] * n_servers
        servers = {
            f"edge-{index:02d}": EdgeServer(capacity)
            for index, capacity in enumerate(per_server)
        }
        if max_users_per_server is not None and max_users_per_server < 1:
            raise ValueError(
                f"max_users_per_server must be >= 1, got {max_users_per_server}"
            )

        template = make_planner(strategy, config)
        self._template = template
        self.config = template.config
        self.routing = routing or RoundRobinRouting()
        self.metrics = MetricsRegistry()
        self.max_users_per_server = max_users_per_server
        self.latency = latency or ZeroLatency()
        self.migration = migration or MigrationCostModel()
        self.handover = handover
        self._ticks = 0
        self.telemetry: FleetTelemetry | None = (
            FleetTelemetry(self.metrics, forecaster) if forecaster is not None else None
        )
        self.channel = channel
        """Optional shared-channel spec applied per server: each cell has
        its own spectrum, so every :class:`FleetServer` prices uploads at
        ``b_i(n)`` over *its* co-offloading population."""
        self.servers: dict[str, FleetServer] = {
            server_id: FleetServer(
                server_id,
                server,
                template.cut_strategy,
                config=template.config,
                allocation=allocation,
                channel=channel,
            )
            for server_id, server in servers.items()
        }
        self._dead: dict[str, FleetServer] = {}
        self._owner: dict[str, str] = {}
        self._degraded: dict[str, _DegradedUser] = {}
        self._unplaced_plans = PlanCache(capacity=PLAN_CACHE_CAPACITY)
        """Plans of arrivals no server took (degraded or rejected), by
        request key, for :meth:`_lookup_plan`: the next arrival of the
        same app is not planned again.  Bounded like a server cache, and
        read only by ``peek``, so no hit/miss counter moves."""
        self._partitions: OrderedDict[str, _Partition] = OrderedDict()
        """The last application the fleet partitioned under each request
        key, least recently used first, for :meth:`_partition`."""
        self._migration_debt: dict[str, ConsumptionBreakdown] = {}
        self._slas: dict[str, UserSLA] = {}
        self._sla_rejections = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def request_key(self, graph: FunctionCallGraph) -> str:
        """The content fingerprint used for routing and plan caching.

        It hashes the graph alone, with no config and no strategy: every
        server plans with the fleet's one config and strategy into a
        cache private to the fleet, so within a fleet the content names
        the plan, and a config schema change does not move users
        between servers.
        """
        return request_fingerprint(graph)

    def _eligible(self) -> list[FleetServer]:
        cap = self.max_users_per_server
        return [
            server
            for server in self.servers.values()
            if cap is None or server.users < cap
        ]

    def admit(
        self,
        device: MobileDevice,
        graph: FunctionCallGraph,
        sla: UserSLA | None = None,
    ) -> FleetAdmission:
        """Route and admit one user; never fails for lack of capacity.

        With *sla*, routing becomes *constrained* placement: candidate
        servers whose modelled cost for this user — hypothetical
        ``E + T`` on that server's deployment plus the link RTT,
        evaluated through :func:`repro.fleet.modelled.modelled_user_cost`
        — would breach the deadline are filtered out before the routing
        policy chooses.  When no server is feasible the user degrades to
        all-local execution (still queued for :meth:`retry_degraded`) or
        is rejected outright, per :attr:`~repro.forecast.sla.UserSLA.
        on_infeasible`.
        """
        user_id = device.device_id
        if user_id in self._owner or user_id in self._degraded:
            raise ValueError(f"user {user_id!r} already admitted to the fleet")
        return self._admit(device, graph, sla)

    def _admit(
        self,
        device: MobileDevice,
        graph: FunctionCallGraph,
        sla: UserSLA | None,
        key: str | None = None,
        kept_plan: "UserPlan | None" = None,
    ) -> FleetAdmission:
        """The admission path behind :meth:`admit`, :meth:`retry_degraded`
        and :meth:`readmit`.

        A retried user brings the *key* and *kept_plan* its failed
        admission computed, a drained user those its dead server held:
        the key skips re-fingerprinting, and the plan stands in for a
        fresh one only where one would have been made, after the cache
        lookup misses.
        """
        user_id = device.device_id
        started = time.perf_counter()
        eligible = self._eligible()
        if not eligible:
            return self._admit_infeasible(device, graph, sla, key, kept_plan)

        if key is None:
            key = self.request_key(graph)
        prepared: "tuple[UserPlan, PartitionedApplication] | None" = None
        if sla is not None:
            # Feasibility needs the newcomer's plan before any server is
            # chosen; borrow a cached one when possible, else plan once.
            # Partition it once, price that one application on every
            # candidate, and hand both down to the admitting server (the
            # plan is used there only on a cache miss, so hit-rate stats
            # are honest).
            plan = self._lookup_plan(key)
            if plan is None:
                plan = kept_plan if kept_plan is not None else self._template.plan_user(graph)
            app = self._partition(key, user_id, graph, plan)
            eligible = self._sla_feasible(eligible, device, app, plan, sla)
            if not eligible:
                return self._admit_infeasible(device, graph, sla, key, plan)
            prepared = (plan, app)
        elif kept_plan is not None:
            prepared = (kept_plan, self._partition(key, user_id, graph, kept_plan))
        target = self.routing.route(
            key,
            [
                server.load(
                    rtt=self.latency.rtt(user_id, server.server_id),
                    predicted_utilisation=(
                        self.telemetry.predict_utilisation(server.server_id)
                        if self.telemetry is not None
                        else None
                    ),
                )
                for server in eligible
            ],
        )
        server = self.servers[target]
        record, cache_hit = server.admit(device, graph, key, prepared)
        self._owner[user_id] = target
        if sla is not None:
            self._slas[user_id] = sla
        self.metrics.counter("fleet_admitted").inc()
        self.metrics.counter("fleet_cache_hits" if cache_hit else "fleet_cache_misses").inc()
        self.metrics.gauge(f"fleet_users_{target}").set(server.users)
        self.metrics.histogram("fleet_admit_seconds").observe(time.perf_counter() - started)
        self._record_tick()
        return FleetAdmission(user_id, target, record, cache_hit=cache_hit)

    def _partition(
        self, key: str, user_id: str, graph: FunctionCallGraph, plan: "UserPlan"
    ) -> PartitionedApplication:
        """*graph* partitioned from ``plan.parts``, built once per graph
        object and version.

        The application last built under *key* is reused only for the
        very graph object it was built from, at the graph version it was
        built at, and for a plan with the same parts; a clone, an edited
        graph or another plan is partitioned afresh.  The version is
        read before the build, so an edit made during it leaves a stale
        version behind.
        """
        version = graph.graph.version
        kept = self._partitions.get(key)
        if (
            kept is not None
            and kept.app.call_graph is graph
            and kept.version == version
            and kept.plan.parts == plan.parts
        ):
            self._partitions.move_to_end(key)
            return kept.app
        app = PartitionedApplication(user_id, graph, plan.parts)
        self._partitions[key] = _Partition(version, plan, app)
        self._partitions.move_to_end(key)
        if len(self._partitions) > PLAN_CACHE_CAPACITY:
            self._partitions.popitem(last=False)
        return app

    def _lookup_plan(self, key: str) -> "UserPlan | None":
        """Any server's cached plan for *key*, without statistics churn.

        Plans are server-independent (content-addressed), so a
        speculative SLA evaluation may borrow the plan from whichever
        cache holds it, or from the plans of arrivals no server took;
        :meth:`~repro.service.plan_cache.PlanCache.peek` leaves LRU
        order and hit-rate accounting untouched — probes are not
        requests.
        """
        for server in self.servers.values():
            plan = server.cache.peek(key)
            if plan is not None:
                return plan
        return self._unplaced_plans.peek(key)

    def _sla_feasible(
        self,
        eligible: list[FleetServer],
        device: MobileDevice,
        app: PartitionedApplication,
        plan: "UserPlan",
        sla: UserSLA,
    ) -> list[FleetServer]:
        """The subset of *eligible* whose modelled cost meets the deadline.

        *app* is partitioned from ``plan.parts`` once by the caller and
        priced, read-only, against every server.
        """
        weights = self.config.objective
        return [
            server
            for server in eligible
            if sla.satisfied_by(
                modelled_user_cost(
                    server,
                    device,
                    app,
                    plan,
                    weights,
                    rtt=self.latency.rtt(device.device_id, server.server_id),
                )
            )
        ]

    def _admit_infeasible(
        self,
        device: MobileDevice,
        graph: FunctionCallGraph,
        sla: UserSLA | None,
        key: str | None,
        plan: "UserPlan | None",
    ) -> FleetAdmission:
        """No server can take the user: degrade to all-local, or reject.

        A degraded user keeps the *key* and *plan* computed so far, for
        :meth:`retry_degraded`; degraded or rejected, the plan is also
        kept where :meth:`_lookup_plan` finds it for the next arrival of
        the same app.
        """
        user_id = device.device_id
        if key is not None and plan is not None:
            self._unplaced_plans.put(key, plan)
        if sla is not None and sla.on_infeasible == "reject":
            self._sla_rejections += 1
            self.metrics.counter("fleet_sla_rejections").inc()
            self._record_tick()
            return FleetAdmission(user_id, None, None, rejected=True)
        self._degraded[user_id] = _DegradedUser(
            device, graph, all_local_breakdown(device, graph), sla=sla, key=key, plan=plan
        )
        if sla is not None:
            self._slas[user_id] = sla
            self.metrics.counter("fleet_sla_infeasible").inc()
        self.metrics.counter("fleet_degraded").inc()
        self._record_tick()
        return FleetAdmission(user_id, None, None, degraded=True)

    def admit_many(
        self,
        arrivals: "Sequence[tuple[MobileDevice, FunctionCallGraph]]",
        slas: Mapping[str, UserSLA] | None = None,
    ) -> list[FleetAdmission]:
        """Admit a batch of users in order, exactly as an ``admit`` loop.

        *slas* attaches per-user :class:`~repro.forecast.sla.UserSLA`
        deadlines by device id.
        """
        return [
            self.admit(device, graph, sla=(slas or {}).get(device.device_id))
            for device, graph in arrivals
        ]

    def retry_degraded(self) -> list[FleetAdmission]:
        """Re-admit degraded users through normal routing; return successes.

        Degraded (all-local) users are queued, not abandoned: whenever
        capacity frees — a rebalance opens a slot under the user cap, a
        dead server is revived — this walks them in degradation order
        and routes each through the standard admission path (policy,
        caps and caches all apply), with the request key and plan kept
        from its failed admission, so a retry neither re-fingerprints nor
        re-plans the graph.  Users the fleet still cannot take stay
        degraded; nothing is ever lost either way.
        """
        if not self._degraded:
            return []
        readmitted: list[FleetAdmission] = []
        for user_id in list(self._degraded):
            if not self._eligible():
                break
            entry = self._degraded.pop(user_id)
            admission = self._admit(
                entry.device, entry.graph, entry.sla, entry.key, entry.plan
            )
            if admission.degraded:
                # Capacity exists but the user's SLA still finds no
                # feasible server; admit re-queued them degraded.
                continue
            readmitted.append(admission)
            self.metrics.counter("fleet_degraded_recovered").inc()
        return readmitted

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def total_consumption(self) -> SystemConsumption:
        """Fleet-wide ``E`` and ``T``: the union of per-server totals.

        User ids are fleet-unique, so merging per-user breakdowns is
        exact; degraded users contribute their all-local consumption.
        Two fleet-layer charges fold into the same ledger: offloading
        users carry the RTT of the link to their server
        (:func:`~repro.fleet.modelled.charge_link_rtt`), and migrated
        users carry their accumulated migration debt in
        transmission/waiting terms.
        """
        combined = SystemConsumption()
        for server_id, server in self.servers.items():
            for user_id, breakdown in server.current_consumption().per_user.items():
                combined.per_user[user_id] = charge_link_rtt(
                    breakdown, self.latency.rtt(user_id, server_id)
                )
        for user_id, degraded in self._degraded.items():
            combined.per_user[user_id] = degraded.breakdown
        for user_id, debt in self._migration_debt.items():
            if user_id in combined.per_user:
                combined.per_user[user_id] = combined.per_user[user_id] + debt
        return combined

    def sla_report(self) -> SLAReport:
        """Point-in-time SLA scorecard against the *current* ledger.

        Each SLA-carrying user's cost is recomputed from
        :meth:`total_consumption` — link RTT and accumulated migration
        debt included — and compared against their deadline in the
        objective's scalarised currency.  The report is a snapshot, not
        a running counter: a rebalance pass (proactive or reactive) can
        genuinely lower, or raise, the violation rate, which is exactly
        what the SLA benchmark measures.
        """
        weights = self.config.objective
        consumption = self.total_consumption()
        violations = 0
        degraded = 0
        worst = 0.0
        for user_id, sla in self._slas.items():
            breakdown = consumption.per_user.get(user_id)
            if breakdown is None:
                # A drained user between kill_server and failover
                # re-admission has no ledger entry this instant.
                continue
            cost = weights.combine(breakdown.energy, breakdown.time)
            if sla.violated_by(cost):
                violations += 1
                worst = max(worst, cost - sla.deadline)
            if user_id in self._degraded:
                degraded += 1
        self.metrics.gauge("fleet_sla_violations").set(violations)
        return SLAReport(
            users=len(self._slas),
            violations=violations,
            rejections=self._sla_rejections,
            degraded=degraded,
            worst_excess=worst,
        )

    def load_stats(self) -> list[ServerLoad]:
        """Per-server load snapshots, sorted by server id."""
        return [
            self.servers[server_id].load() for server_id in sorted(self.servers)
        ]

    def stats(self) -> FleetStats:
        hits = self.metrics.counter("fleet_cache_hits").value
        misses = self.metrics.counter("fleet_cache_misses").value
        return FleetStats(
            servers=len(self.servers),
            users=len(self._owner),
            degraded_users=len(self._degraded),
            cache_hits=hits,
            cache_misses=misses,
            per_server_users={
                server_id: server.users for server_id, server in sorted(self.servers.items())
            },
            per_server_utilisation={
                server_id: server.utilisation
                for server_id, server in sorted(self.servers.items())
            },
        )

    @property
    def degraded_users(self) -> dict[str, ConsumptionBreakdown]:
        """Users running all-local because no server had capacity."""
        return {
            user_id: entry.breakdown for user_id, entry in self._degraded.items()
        }

    @property
    def migration_debt(self) -> dict[str, ConsumptionBreakdown]:
        """Accumulated per-user migration charges (moves are never free)."""
        return dict(self._migration_debt)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_tick(self) -> None:
        """Sample every server's utilisation and every owned link's RTT.

        Called at the end of each admission and rebalance — the fleet's
        notion of a tick — so the telemetry's series advance with the
        workload and forecasts always extrapolate from the latest state.
        A fleet built with ``forecaster=None`` records nothing.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        for server_id, server in sorted(self.servers.items()):
            telemetry.record_server(server_id, server.utilisation)
            for user_id in server.admitted:
                telemetry.record_link(
                    user_id, server_id, self.latency.rtt(user_id, server_id)
                )

    # ------------------------------------------------------------------
    # Mobility: the simulated-time loop
    # ------------------------------------------------------------------
    def _run_handovers(self) -> "tuple[list[HandoverDecision], float]":
        """Offer every admitted user a handover; execute accepted ones.

        Users are visited in sorted-id order (determinism over dict
        history).  Users whose placement offloads nothing are skipped:
        they use no link (their RTT never enters the ledger — see
        :meth:`total_consumption`), so a handover could only cost and
        never help.  Each remaining user sees its current link plus
        every *eligible* alternative — ``max_users_per_server`` binds
        handover targets exactly as it binds admission and rebalance
        targets — and the fleet's :attr:`handover` policy picks a
        destination or declines.  Accepted moves admit the user on the
        new server with its recorded plan and are charged through
        :meth:`charge_migration`, identically to rebalance moves:
        switching base stations re-transmits the offloaded state and
        pays the handoff latency.
        """
        from repro.mobility.handover import HandoverDecision

        policy = self.handover
        if policy is None:  # pragma: no cover - tick() guards
            return [], 0.0
        weights = self.config.objective
        cap = self.max_users_per_server
        decisions: list[HandoverDecision] = []
        charged = 0.0
        for user_id in sorted(self._owner):
            src_id = self._owner[user_id]
            src = self.servers[src_id]
            _, remote_weight, cut = src.admitted[user_id].weights
            if remote_weight <= 0 and cut <= 0:
                continue
            rtts = {src_id: self.latency.rtt(user_id, src_id)}
            for server in self.servers.values():
                if server is src or (cap is not None and server.users >= cap):
                    continue
                rtts[server.server_id] = self.latency.rtt(user_id, server.server_id)
            target = policy.target(user_id, src_id, rtts, self.telemetry)
            if target is None or target == src_id or target not in rtts:
                continue
            cost = self._move_user(src, self.servers[target], user_id)
            charged += cost.combined(weights)
            self.metrics.counter("fleet_handovers").inc()
            decisions.append(
                HandoverDecision(
                    user_id=user_id,
                    source=src_id,
                    target=target,
                    rtt_before=rtts[src_id],
                    rtt_after=rtts[target],
                    tick=self._ticks,
                )
            )
        return decisions, charged

    def tick(self, dt: float = 1.0) -> TickReport:
        """Advance simulated time by *dt*: move users, re-measure, hand over.

        One tick (i) advances the latency map when it is time-varying —
        a :class:`~repro.mobility.latency.MobileLatencyMap` exposes
        ``advance(dt)``; static maps have no such method and simply
        stand still — (ii) records the post-move RTT of every owned
        link into the existing ``fleet_rtt_*`` telemetry series (and
        every server's utilisation), so forecasters extrapolate from
        live positions, and (iii) runs the fleet's
        :class:`~repro.mobility.handover.HandoverPolicy`, if one is
        configured, over every admitted user.  Executed handovers are
        priced through the :class:`~repro.fleet.migration.
        MigrationCostModel` and charged into the user's migration debt,
        exactly like rebalance moves; the report totals the charge.

        The loop is deterministic: with seeded mobility models the same
        seed replays the same positions, the same RTTs, and therefore
        the same handover sequence, tick for tick.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        advance = getattr(self.latency, "advance", None)
        if advance is not None:
            advance(dt)
        self._ticks += 1
        self._record_tick()
        decisions: "list[HandoverDecision]" = []
        charged = 0.0
        if self.handover is not None:
            decisions, charged = self._run_handovers()
        self.metrics.counter("fleet_ticks").inc()
        return TickReport(
            tick=self._ticks, dt=dt, handovers=decisions, migration_cost=charged
        )

    # ------------------------------------------------------------------
    # Rebalancing and failover hooks
    # ------------------------------------------------------------------
    def charge_migration(self, user_id: str) -> MigrationCost:
        """Charge *user_id* for having been moved to its current server.

        Prices re-transmitting the offloaded input data of the user's
        current placement at their link rate, plus the model's handoff
        latency, and records the charge in the user's migration debt;
        :meth:`total_consumption` folds the debt into the fleet ledger.
        """
        server = self.servers[self._owner[user_id]]
        entry = server.admitted[user_id]
        cost = self.migration.cost(entry.device, server.offloaded_data(user_id))
        debt = self._migration_debt.get(user_id)
        breakdown = cost.as_breakdown()
        self._migration_debt[user_id] = (
            breakdown if debt is None else debt + breakdown
        )
        self.metrics.counter("fleet_migrations").inc()
        self.metrics.histogram("fleet_migration_cost").observe(
            cost.combined(self.config.objective)
        )
        return cost

    def _move_gain(self, src: FleetServer, dst: FleetServer, user_id: str) -> float:
        """Modelled ``E + T`` drop from moving *user_id* from src to dst.

        Evaluates both servers' deployments with the user's current
        placement lifted from *src* onto *dst* (no replanning, no
        mutation) and adds the RTT delta for offloading users — moving
        toward a nearer server is itself a gain under a geo latency map.
        """
        weights = self.config.objective
        entry = src.admitted[user_id]
        before = src.modelled_combined(weights) + dst.modelled_combined(weights)
        after = src.modelled_combined(weights, without=user_id) + dst.modelled_combined(
            weights, extra=entry
        )
        gain = before - after
        _, remote_weight, cut = entry.weights
        if remote_weight > 0 or cut > 0:
            rtt_delta = self.latency.rtt(user_id, src.server_id) - self.latency.rtt(
                user_id, dst.server_id
            )
            gain += weights.combine(0.0, rtt_delta)
        return gain

    def _next_rebalance_move(
        self, cost_aware: bool
    ) -> tuple[FleetServer, FleetServer, str] | None:
        """Pick the next (src, dst, user) move, or ``None`` to stop.

        The destination is the idlest *capped-eligible* server — a
        rebalance must respect ``max_users_per_server`` exactly as
        admission does, never overfilling a target past the cap.  A
        move is only proposed while it strictly reduces the user-count
        spread (a spread of 1 cannot improve; moving would just swap
        which server is busiest, and the pass would never end).
        Cost-aware mode additionally requires the best candidate's
        modelled gain to exceed its migration cost.
        """
        if not self.servers:
            return None
        ranked = sorted(self.servers.values(), key=lambda s: (s.users, s.server_id))
        busiest = ranked[-1]
        targets = [server for server in self._eligible() if server is not busiest]
        if not targets:
            return None
        idlest = min(targets, key=lambda s: (s.users, s.server_id))
        spread = busiest.users - idlest.users
        if spread <= 1:
            return None
        if not cost_aware:
            return busiest, idlest, next(reversed(busiest.admitted))

        weights = self.config.objective
        best_user: str | None = None
        best_net = 0.0
        for user_id in reversed(list(busiest.admitted)):
            entry = busiest.admitted[user_id]
            cost = self.migration.cost(
                entry.device, busiest.offloaded_data(user_id)
            ).combined(weights)
            net = self._move_gain(busiest, idlest, user_id) - cost
            if best_user is None or net > best_net:
                best_user, best_net = user_id, net
        if best_user is None or best_net <= 0.0:
            return None
        return busiest, idlest, best_user

    def _move_user(self, src: FleetServer, dst: FleetServer, user_id: str) -> MigrationCost:
        """Move *user_id* from *src* onto *dst*; charge and return the cost."""
        dst.place(*src.evict(user_id))
        self._owner[user_id] = dst.server_id
        cost = self.charge_migration(user_id)
        self.metrics.gauge(f"fleet_users_{src.server_id}").set(src.users)
        self.metrics.gauge(f"fleet_users_{dst.server_id}").set(dst.users)
        self.metrics.counter("fleet_rebalanced").inc()
        return cost

    def _best_proactive_move(
        self, src: FleetServer, predicted: dict[str, float], threshold: float
    ) -> tuple[FleetServer, str, float] | None:
        """Pick (destination, user, shifted weight) to relieve *src*.

        The candidate user is the one offloading the most computation to
        *src* (all-local users free no server capacity); the destination
        is the capped-eligible server whose *predicted* utilisation
        stays under the threshold after absorbing that weight, lowest
        predicted-after first.  Users carrying an SLA are only moved to
        servers where their deadline stays feasible — evaluated through
        the same shared helper as admission.
        """
        candidates = [s for s in self._eligible() if s is not src]
        if not candidates:
            return None
        best: tuple[float, str] | None = None
        for user_id, user in src.admitted.items():
            weight = user.weights[1]
            if weight <= 0:
                continue
            if best is None or (weight, user_id) > best:
                best = (weight, user_id)
        if best is None:
            return None
        weight, user_id = best
        entry = src.admitted[user_id]
        sla = self._slas.get(user_id)
        feasible: list[tuple[float, str, FleetServer]] = []
        for dst in candidates:
            after = predicted[dst.server_id] + weight / dst.server.total_capacity
            if after > threshold:
                continue
            if sla is not None and not self._sla_feasible(
                [dst], entry.device, entry.app, entry.plan, sla
            ):
                continue
            feasible.append((after, dst.server_id, dst))
        if not feasible:
            return None
        _, _, dst = min(feasible, key=lambda item: (item[0], item[1]))
        return dst, user_id, weight

    def _rebalance_proactive(self, horizon: int, threshold: float) -> int:
        """Drain servers whose *forecasted* utilisation breaches threshold.

        Seeds a per-server predicted-utilisation map from the telemetry
        (falling back to current utilisation on cold series), then
        repeatedly relieves the hottest predicted-breaching server,
        updating the map incrementally as each move shifts offloaded
        weight — the forecast is not re-queried mid-pass, so one pass
        acts on one consistent view of the future.
        """
        telemetry = self.telemetry
        if telemetry is None:  # pragma: no cover - rebalance() validates
            raise ValueError("proactive rebalancing needs telemetry")
        predicted: dict[str, float] = {}
        for server_id, server in sorted(self.servers.items()):
            outlook = telemetry.predict_utilisation(server_id, horizon)
            if outlook is None:
                outlook = server.utilisation
            predicted[server_id] = max(outlook, 0.0)
        moves = 0
        while True:
            breaching = sorted(
                (sid for sid, value in predicted.items() if value > threshold),
                key=lambda sid: (-predicted[sid], sid),
            )
            chosen: tuple[FleetServer, FleetServer, str, float] | None = None
            for src_id in breaching:
                src = self.servers[src_id]
                move = self._best_proactive_move(src, predicted, threshold)
                if move is not None:
                    dst, user_id, weight = move
                    chosen = (src, dst, user_id, weight)
                    break
            if chosen is None:
                break
            src, dst, user_id, weight = chosen
            self._move_user(src, dst, user_id)
            predicted[src.server_id] -= weight / src.server.total_capacity
            predicted[dst.server_id] += weight / dst.server.total_capacity
            self.metrics.counter("fleet_proactive_moves").inc()
            moves += 1
        return moves

    def rebalance(
        self,
        *,
        cost_aware: bool = True,
        proactive: bool = False,
        horizon: int = 1,
        utilisation_threshold: float = DEFAULT_UTILISATION_THRESHOLD,
    ) -> int:
        """Move users between servers to restore balance; return moves.

        Reactive (default): each move evicts one of the busiest server's
        users and admits it (with its recorded plan — no replanning) on
        the idlest *eligible* server (``max_users_per_server`` is
        enforced on move targets exactly as on admission), until the
        user-count spread is at most 1 or no move can improve it.  This
        is the hook a supervisor calls after failover or a burst of
        affinity-skewed arrivals.

        Proactive (``proactive=True``): instead of reacting to the
        spread the fleet *observes*, moves drain servers whose
        utilisation the telemetry *forecasts* above
        *utilisation_threshold* at *horizon* ticks out — the hotspot is
        relieved before it materialises.  Requires the fleet to have
        been built with a forecaster (the default); *cost_aware* does
        not apply.

        Moves are not free in either mode: each one is charged through
        the fleet's :class:`~repro.fleet.migration.MigrationCostModel`
        (re-transmit the offloaded input data, pay the handoff latency)
        and the charge lands in the moved user's ledger.  With
        *cost_aware* (the reactive default) a move only happens when its
        modelled imbalance gain exceeds that cost — the candidate moved
        is the busiest server's best net-gain user, not blindly its most
        recent admission; pass ``cost_aware=False`` for the
        unconditional spread-flattening rebalancer (still charged, never
        gated).  Afterwards, any freed capacity is offered to degraded
        users via :meth:`retry_degraded`.
        """
        if proactive:
            if self.telemetry is None:
                raise ValueError(
                    "proactive rebalancing needs telemetry; "
                    "build the fleet with a forecaster"
                )
            if horizon < 1:
                raise ValueError(f"horizon must be >= 1, got {horizon}")
            moves = self._rebalance_proactive(horizon, utilisation_threshold)
        else:
            moves = 0
            while True:
                move = self._next_rebalance_move(cost_aware)
                if move is None:
                    break
                busiest, idlest, user_id = move
                self._move_user(busiest, idlest, user_id)
                moves += 1
        if self._degraded:
            self.retry_degraded()
        self._record_tick()
        return moves

    def kill_server(self, server_id: str) -> list[tuple[OnlineUser, str]]:
        """Take *server_id* out of the pool; return its drained users.

        The server's users are drained and its ledger emptied; the
        server itself, plan cache included, is kept aside for
        :meth:`revive_server`.  Callers — normally
        :func:`repro.fleet.failover.handle_outage` — re-admit each
        returned user, with its request key, on the survivors through
        :meth:`readmit`.
        """
        server = self.servers.pop(server_id, None)
        if server is None:
            raise KeyError(f"unknown or already-dead server {server_id!r}")
        self._dead[server_id] = server
        drained = server.drain()
        for user, _ in drained:
            self._owner.pop(user.user_id, None)
        self.metrics.counter("fleet_server_outages").inc()
        self.metrics.gauge(f"fleet_users_{server_id}").set(0)
        return drained

    def readmit(self, user: OnlineUser, key: str) -> FleetAdmission:
        """Re-admit a user drained from a dead server (failover path).

        The user goes through the standard admission path with their
        recorded SLA, request *key* and plan, as :meth:`retry_degraded`
        does: no re-fingerprinting, no re-planning.  A user already in
        the fleet is never turned away: where the SLA would reject, the
        user degrades to all-local execution instead and stays queued.
        """
        sla = self._slas.get(user.user_id)
        if sla is not None and sla.on_infeasible == "reject":
            sla = replace(sla, on_infeasible="degrade")
        return self._admit(user.device, user.graph, sla, key, user.plan)

    def revive_server(self, server_id: str) -> list[FleetAdmission]:
        """Return a previously-killed server to the pool (recovery hook).

        The server rejoins empty (its users were drained at the outage)
        but keeps its plan cache — the recovered machine's content-
        addressed plans are still valid, planning being deterministic.
        Freed capacity is immediately offered to degraded users through
        :meth:`retry_degraded`; the re-admissions are returned.
        """
        server = self._dead.pop(server_id, None)
        if server is None:
            raise KeyError(f"server {server_id!r} is not dead")
        self.servers[server_id] = server
        self.metrics.counter("fleet_server_revivals").inc()
        self.metrics.gauge(f"fleet_users_{server_id}").set(server.users)
        return self.retry_degraded()
