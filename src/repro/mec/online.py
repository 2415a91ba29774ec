"""Online multi-user admission (extension beyond the paper).

The paper plans all users at once.  A real edge deployment admits users
*over time*, and replanning everyone on each arrival is both expensive
and disruptive (already-running placements would migrate).  This module
implements the incremental alternative and the machinery to measure what
it costs:

* :class:`OnlinePlanner` keeps a running system state; each
  :meth:`~OnlinePlanner.admit` plans only the newcomer — existing users'
  placements are frozen, and the newcomer's greedy decisions are made
  against the server load those placements already impose;
* :func:`regret_vs_offline` replans every prefix of the arrival sequence
  from scratch (the clairvoyant offline optimum this pipeline can reach)
  and reports the ratio — the price of never migrating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.callgraph.model import FunctionCallGraph
from repro.mec.admission import AllocationPolicy
from repro.mec.channel import SharedChannel

if TYPE_CHECKING:  # pragma: no cover - repro.core imports repro.mec
    from repro.core.config import PlannerConfig
    from repro.core.results import CutStrategy, UserPlan
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, SystemConsumption, UserContext


@dataclass
class AdmissionRecord:
    """One admitted user and the system state right after admission."""

    user_id: str
    consumption_after: SystemConsumption
    offloaded_functions: int
    plan: "UserPlan"


@dataclass
class OnlineState:
    """The planner's running view of the deployment."""

    users: list[UserContext] = field(default_factory=list)
    apps: dict[str, PartitionedApplication] = field(default_factory=dict)
    remote_parts: dict[str, set[int]] = field(default_factory=dict)
    history: list[AdmissionRecord] = field(default_factory=list)


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
        admits it, and replays survivors after an eviction; both hold the
        user's :class:`PartitionedApplication` already and hand it in
        here rather than rebuild it.
        """
        if any(u.user_id == device.device_id for u in self.state.users):
            raise ValueError(f"user {device.device_id!r} already admitted")

        self.state.users.append(UserContext(device, app.call_graph))
        self.state.apps[device.device_id] = app

        system = MECSystem(
            self.server,
            list(self.state.users),
            allocation=self.allocation,
            channel=self.channel,
        )
        # Frozen users enter the greedy with no bisections -> no candidate
        # moves; their remote sets are seeded from the recorded placement
        # by replaying them as one un-split "side" that initial_placement
        # marks remote, then intersecting with the frozen sets.
        bisections = {
            uid: [] for uid in self.state.apps if uid != device.device_id
        }
        bisections[device.device_id] = plan.bisections
        greedy = generate_offloading_scheme(
            system,
            self.state.apps,
            bisections,
            weights=self.config.objective,
            placement_mode=self.config.initial_placement_mode,
            frozen_remote=self.state.remote_parts,
        )
        self.state.remote_parts = greedy.remote_parts
        record = AdmissionRecord(
            user_id=device.device_id,
            consumption_after=greedy.consumption,
            offloaded_functions=greedy.scheme.offload_count(device.device_id),
            plan=plan,
        )
        self.state.history.append(record)
        return record

    def current_consumption(self) -> SystemConsumption:
        """Consumption of the deployment as it stands."""
        if not self.state.users:
            raise ValueError("no users admitted yet")
        system = MECSystem(
            self.server,
            list(self.state.users),
            allocation=self.allocation,
            channel=self.channel,
        )
        return system.evaluate_placement(self.state.apps, self.state.remote_parts)


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
