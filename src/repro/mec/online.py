"""Online multi-user admission (extension beyond the paper).

The paper plans all users at once.  A real edge deployment admits users
*over time*, and replanning everyone on each arrival is both expensive
and disruptive (already-running placements would migrate).  This module
implements the incremental alternative and the machinery to measure what
it costs:

* :class:`OnlinePlanner` is one server's ledger: its users in admission
  order, each with device, partitioned application, plan, remote part
  set and that placement's ``(local, remote, cut)`` weights, plus the
  consumption of the deployment as it stands.
  :meth:`~OnlinePlanner.place` runs the newcomer's greedy against the
  server load the frozen placements of everyone else impose, reading
  their recorded weights rather than their parts, and changes nothing;
  :meth:`~OnlinePlanner.admit` places and commits, reusing the last
  placement when it was made for the same newcomer against the same
  ledger.  The greedy that last changed the ledger priced exactly the
  deployment it left, so that price is kept and read back, not
  evaluated again.  :meth:`~OnlinePlanner.evict` and
  :meth:`~OnlinePlanner.clear` take users out in place;
* :func:`regret_vs_offline` replans every prefix of the arrival sequence
  from scratch (the clairvoyant offline optimum this pipeline can reach)
  and reports the ratio — the price of never migrating.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.callgraph.model import FunctionCallGraph
from repro.mec.admission import AllocationPolicy
from repro.mec.channel import SharedChannel

if TYPE_CHECKING:  # pragma: no cover - repro.core imports repro.mec
    from repro.core.config import PlannerConfig
    from repro.core.results import CutStrategy, UserPlan
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.greedy import GreedyResult, generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, SystemConsumption, UserContext


@dataclass
class AdmissionRecord:
    """One admitted user and the system state right after admission."""

    user_id: str
    consumption_after: SystemConsumption
    offloaded_functions: int
    plan: "UserPlan"


@dataclass(frozen=True)
class OnlineUser:
    """One admitted user as the server's ledger holds it.

    Only :meth:`OnlinePlanner._commit` makes one, with the placement
    the greedy gave the user.  It is immutable, down to the remote part
    set, so :attr:`remote` and :attr:`weights` cannot drift apart.
    """

    device: MobileDevice
    app: PartitionedApplication
    """The application partitioned from ``plan.parts``; its call graph
    is the user's."""

    plan: "UserPlan"
    remote: frozenset[int]
    """Part ids placed on the server."""

    weights: tuple[float, float, float]
    """``(local, remote, cut)`` weights of the placement,
    ``app.weights(remote)``: all the pricing of a frozen user reads."""

    @property
    def user_id(self) -> str:
        return self.device.device_id

    @property
    def graph(self) -> FunctionCallGraph:
        return self.app.call_graph


@dataclass
class OnlineState:
    """One server's ledger: its admitted users and their deployment's price."""

    users: dict[str, OnlineUser] = field(default_factory=dict)
    """Admitted users by id, in admission order."""

    consumption: SystemConsumption = field(default_factory=SystemConsumption)
    """The deployment's consumption, as priced by the greedy that last
    changed it (empty when no user is admitted)."""


@dataclass(frozen=True)
class _Placed:
    """The last :meth:`OnlinePlanner.place`: its inputs, the ledger
    version it ran against, and its result."""

    version: int
    device: MobileDevice
    app: PartitionedApplication
    plan: "UserPlan"
    result: GreedyResult

    def answers(
        self,
        version: int,
        device: MobileDevice,
        app: PartitionedApplication,
        plan: "UserPlan",
    ) -> bool:
        """Whether :meth:`OnlinePlanner.place` would return :attr:`result`
        again: the same ledger, device and application, and a plan with
        the same parts and bisections.  The greedy is pure, so it would."""
        return (
            version == self.version
            and device is self.device
            and app is self.app
            and plan.parts == self.plan.parts
            and plan.bisections == self.plan.bisections
        )


class OnlinePlanner:
    """Admits users one at a time without migrating earlier placements."""

    def __init__(
        self,
        server: EdgeServer,
        cut_strategy: "CutStrategy",
        config: "PlannerConfig | None" = None,
        allocation: AllocationPolicy | None = None,
        channel: SharedChannel | None = None,
    ) -> None:
        # Local imports: repro.core depends on repro.mec, not vice versa.
        from repro.core.config import PlannerConfig
        from repro.core.planner import OffloadingPlanner

        self.server = server
        self.config = config or PlannerConfig()
        self.allocation = allocation
        self.channel = channel
        """Optional shared wireless channel: admissions and consumption
        queries price transmissions at the contention-aware ``b_i(n)``."""
        self._planner = OffloadingPlanner(
            cut_strategy, config=self.config, strategy_name="online"
        )
        self.state = OnlineState()
        self._version = 0
        """Bumped by every ledger change: each :meth:`_commit`, and
        :meth:`clear`, through which :meth:`evict` also goes."""
        self._placed: _Placed | None = None

    @property
    def users(self) -> Mapping[str, OnlineUser]:
        """Admitted users by id, in admission order."""
        return self.state.users

    def admit(
        self,
        device: MobileDevice,
        call_graph: FunctionCallGraph,
        plan: "UserPlan | None" = None,
    ) -> AdmissionRecord:
        """Plan the newcomer against the current load; freeze everyone else.

        The newcomer's application is compressed and cut exactly as in the
        offline pipeline; Algorithm 2's greedy then runs with *only* the
        newcomer's parts as candidates — existing users contribute their
        (frozen) server loads, so the newcomer sees realistic waiting.

        A precomputed *plan* (e.g. a content-addressed cache hit from
        :class:`repro.service.server.PlanService`) skips the compress/cut
        stages entirely; only the newcomer's greedy placement runs.  The
        caller owns the guarantee that *plan* was produced from an
        identical graph under an identical config — the service's
        fingerprint keying provides exactly that.
        """
        if plan is None:
            plan = self._planner.plan_user(call_graph)
        return self.admit_partitioned(
            device, PartitionedApplication(device.device_id, call_graph, plan.parts), plan
        )

    def admit_partitioned(
        self,
        device: MobileDevice,
        app: PartitionedApplication,
        plan: "UserPlan",
    ) -> AdmissionRecord:
        """:meth:`admit` with the newcomer's application already
        partitioned: *app* must have been built from ``plan.parts``.

        The fleet prices a newcomer against several servers before it
        admits it; it holds the user's :class:`PartitionedApplication`
        already and hands it in here rather than rebuild it.  When the
        last :meth:`place` on this planner was that pricing — the same
        device and application objects, a plan with equal parts and
        bisections, and no ledger change since — its placement is
        committed as it is; otherwise the newcomer is placed again.
        """
        placed = self._placed
        if placed is not None and placed.answers(self._version, device, app, plan):
            greedy = placed.result
        else:
            greedy = self.place(device, app, plan)
        return self._commit(device, app, plan, greedy)

    def place(
        self,
        device: MobileDevice,
        app: PartitionedApplication,
        plan: "UserPlan",
    ) -> GreedyResult:
        """The greedy placement *device* would receive if admitted now.

        *app* is the newcomer's application partitioned from
        ``plan.parts``.  The newcomer's bisections are the only candidate
        moves; every admitted user is frozen at its recorded placement
        and enters the greedy with its recorded ``(local, remote, cut)``
        weights, so none of their parts are walked.
        :func:`~repro.mec.greedy.generate_offloading_scheme` is pure, so
        the ledger is left exactly as found, and the result's
        ``consumption`` is the deployment's price with the newcomer in.
        The planner remembers the result with its inputs and the ledger
        version, for :meth:`admit_partitioned` to commit.
        """
        user_id = device.device_id
        users = self.state.users
        if user_id in users:
            raise ValueError(f"user {user_id!r} already admitted")
        apps = {uid: user.app for uid, user in users.items()}
        apps[user_id] = app
        contexts = [UserContext(user.device, user.graph) for user in users.values()]
        contexts.append(UserContext(device, app.call_graph))
        result = generate_offloading_scheme(
            self._system(contexts),
            apps,
            {user_id: plan.bisections},
            weights=self.config.objective,
            placement_mode=self.config.initial_placement_mode,
            frozen={uid: (user.remote, user.weights) for uid, user in users.items()},
        )
        self._placed = _Placed(self._version, device, app, plan, result)
        return result

    def _commit(
        self,
        device: MobileDevice,
        app: PartitionedApplication,
        plan: "UserPlan",
        greedy: GreedyResult,
    ) -> AdmissionRecord:
        """Enter the user at the placement :meth:`place` gave it; keep the
        price.  The only place a ledger entry is made."""
        user_id = device.device_id
        self.state.users[user_id] = OnlineUser(
            device, app, plan, frozenset(greedy.remote_parts[user_id]), greedy.terms[user_id]
        )
        self.state.consumption = greedy.consumption
        self._version += 1
        return AdmissionRecord(
            user_id=user_id,
            consumption_after=greedy.consumption,
            offloaded_functions=greedy.scheme.offload_count(user_id),
            plan=plan,
        )

    def evict(self, user_id: str) -> OnlineUser:
        """Remove *user_id* and re-place the survivors; return the evicted user.

        A placement stays frozen only while the deployment around it
        does: the survivors are placed again and committed, one by one in
        admission order, with their recorded plans and applications (no
        compress/cut or partition work), so they reclaim the evicted
        user's share of the server.
        """
        if user_id not in self.state.users:
            raise KeyError(f"user {user_id!r} not admitted")
        evicted = self.state.users.pop(user_id)
        for user in self.clear():
            self._commit(
                user.device, user.app, user.plan, self.place(user.device, user.app, user.plan)
            )
        return evicted

    def clear(self) -> list[OnlineUser]:
        """Empty the ledger; return its users in admission order."""
        users = list(self.state.users.values())
        self.state = OnlineState()
        self._version += 1
        return users

    def evaluate(
        self, *, without: str | None = None, extra: OnlineUser | None = None
    ) -> SystemConsumption:
        """Consumption of the deployment under a hypothetical edit.

        Prices the current placements with *without* removed and/or
        *extra* (a user at its recorded placement, typically another
        server's) added.  Nothing is placed and nothing changes; an empty
        hypothetical deployment costs an empty :class:`SystemConsumption`.
        """
        users = [user for uid, user in self.state.users.items() if uid != without]
        if extra is not None:
            users.append(extra)
        if not users:
            return SystemConsumption()
        return self._system(UserContext(user.device, user.graph) for user in users).price_terms(
            {user.user_id: user.weights for user in users}
        )

    def current_consumption(self) -> SystemConsumption:
        """Consumption of the deployment as it stands."""
        if not self.state.users:
            raise ValueError("no users admitted yet")
        return self.state.consumption

    def _system(self, contexts: Iterable[UserContext]) -> MECSystem:
        return MECSystem(
            self.server, list(contexts), allocation=self.allocation, channel=self.channel
        )


def regret_vs_offline(
    server: EdgeServer,
    cut_strategy: "CutStrategy",
    arrivals: list[tuple[MobileDevice, FunctionCallGraph]],
    config: "PlannerConfig | None" = None,
    allocation: AllocationPolicy | None = None,
) -> list[tuple[str, float, float]]:
    """Per-arrival (user id, online E+T, offline E+T) comparison.

    The offline column replans the whole prefix from scratch — the best
    this pipeline could do if migration were free.  Online/offline >= 1
    up to greedy noise; the gap is the price of freezing placements.
    """
    from repro.core.config import PlannerConfig
    from repro.core.planner import OffloadingPlanner

    config = config or PlannerConfig()
    online = OnlinePlanner(server, cut_strategy, config=config, allocation=allocation)
    offline_planner = OffloadingPlanner(cut_strategy, config=config, strategy_name="offline")

    rows: list[tuple[str, float, float]] = []
    prefix: list[tuple[MobileDevice, FunctionCallGraph]] = []
    for device, call_graph in arrivals:
        prefix.append((device, call_graph))
        online.admit(device, call_graph)
        online_cost = online.current_consumption().combined(config.objective)

        system = MECSystem(
            server, [UserContext(d, g) for d, g in prefix], allocation=allocation
        )
        offline_result = offline_planner.plan_system(
            system, {d.device_id: g for d, g in prefix}
        )
        offline_cost = offline_result.consumption.combined(config.objective)
        rows.append((device.device_id, online_cost, offline_cost))
    return rows
