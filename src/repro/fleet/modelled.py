"""Shared hypothetical-deployment evaluation for fleet decisions.

Two fleet mechanisms must answer "what *would* this server's ``E + T``
be?" without touching planner state: cost-aware rebalancing (the gain of
a move is the drop in the two affected servers' modelled totals) and SLA
admission (a candidate server is feasible only if the newcomer's
modelled cost meets the deadline).  Before this module each would have
carried its own copy of the evaluation and the two modelled-latency
paths could drift; now both go through :func:`hypothetical_consumption`
— :meth:`repro.fleet.fleet.FleetServer.modelled_combined` is a thin
wrapper over it, and ``tests/test_forecast.py`` pins the agreement.

:func:`hypothetical_remote_parts` extends the same discipline to the
admission side: it replays :meth:`repro.mec.online.OnlinePlanner.admit`'s
greedy placement for a newcomer *without mutating the planner* (the
greedy itself is pure), so SLA feasibility evaluates the exact placement
the user would receive, not an approximation of it.

Neither helper partitions anything: building a
:class:`~repro.mec.scheme.PartitionedApplication` costs more than pricing
it, so :class:`~repro.fleet.fleet.EdgeFleet` builds the newcomer's once
per SLA check, prices that instance against every candidate server, and
hands it on to the admitting server's planner.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.callgraph.model import FunctionCallGraph
from repro.mec.devices import MobileDevice
from repro.mec.energy import ConsumptionBreakdown
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, SystemConsumption, UserContext

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.results import UserPlan
    from repro.fleet.fleet import FleetServer
    from repro.mec.objective import ObjectiveWeights

HypotheticalUser = tuple[
    MobileDevice, FunctionCallGraph, PartitionedApplication, set[int]
]
"""A user lifted out of (or held up to) a server: device, graph,
partitioned app, and remote part ids."""


def charge_link_rtt(breakdown: ConsumptionBreakdown, rtt: float) -> ConsumptionBreakdown:
    """*breakdown* with the link *rtt* added to its waiting and (per
    formula (2)) remote time, iff the user offloads."""
    if rtt > 0 and (breakdown.remote_time > 0 or breakdown.transmission_time > 0):
        return replace(
            breakdown,
            remote_time=breakdown.remote_time + rtt,
            waiting_time=breakdown.waiting_time + rtt,
        )
    return breakdown


def hypothetical_consumption(
    server: "FleetServer",
    *,
    without: str | None = None,
    extra: HypotheticalUser | None = None,
) -> SystemConsumption:
    """Consumption of *server*'s deployment under a hypothetical edit.

    Evaluates the server's current placements with *without* removed
    and/or *extra* (a user's device, graph, partitioned app and remote
    part set, typically lifted from another server or pre-placed by
    :func:`hypothetical_remote_parts`) added — no planner mutation, no
    greedy replay.  Returns an empty :class:`SystemConsumption` for an
    empty hypothetical deployment.

    This is the single modelled-``E + T`` evaluator behind *both*
    cost-aware rebalancing gains and SLA feasibility, so the two paths
    cannot drift.
    """
    state = server.planner.state
    users = [u for u in state.users if u.user_id != without]
    apps: dict[str, PartitionedApplication] = {
        uid: app for uid, app in state.apps.items() if uid != without
    }
    remote_parts: dict[str, set[int]] = {
        uid: parts for uid, parts in state.remote_parts.items() if uid != without
    }
    if extra is not None:
        device, graph, app, remote = extra
        users.append(UserContext(device, graph))
        apps[device.device_id] = app
        remote_parts[device.device_id] = remote
    if not users:
        return SystemConsumption()
    system = MECSystem(
        server.server,
        users,
        allocation=server.planner.allocation,
        channel=server.planner.channel,
    )
    return system.evaluate_placement(apps, remote_parts)


def hypothetical_remote_parts(
    server: "FleetServer",
    device: MobileDevice,
    app: PartitionedApplication,
    plan: "UserPlan",
) -> set[int]:
    """The remote part set *device* would receive if admitted on *server*.

    *app* is the newcomer's application partitioned from ``plan.parts``.
    Replays the greedy placement of
    :meth:`~repro.mec.online.OnlinePlanner.admit` — newcomer's bisections
    as the only candidate moves, existing users frozen at their recorded
    placements — against copies of the planner's state.
    :func:`~repro.mec.greedy.generate_offloading_scheme` is pure, so the
    server is left exactly as found.
    """
    state = server.planner.state
    config = server.planner.config
    users = [*state.users, UserContext(device, app.call_graph)]
    apps = dict(state.apps)
    apps[device.device_id] = app
    bisections: dict[str, list[tuple[set[int], set[int]]]] = {
        uid: [] for uid in state.apps
    }
    bisections[device.device_id] = plan.bisections
    system = MECSystem(
        server.server,
        users,
        allocation=server.planner.allocation,
        channel=server.planner.channel,
    )
    greedy = generate_offloading_scheme(
        system,
        apps,
        bisections,
        weights=config.objective,
        placement_mode=config.initial_placement_mode,
        frozen_remote=state.remote_parts,
    )
    return greedy.remote_parts[device.device_id]


def modelled_user_cost(
    server: "FleetServer",
    device: MobileDevice,
    app: PartitionedApplication,
    plan: "UserPlan",
    weights: "ObjectiveWeights",
    rtt: float = 0.0,
) -> float:
    """*device*'s modelled scalarised cost if admitted on *server*.

    *app* is the newcomer's application partitioned from ``plan.parts``;
    the caller builds it once and passes the same instance for every
    candidate server (it is only read).  Places the newcomer
    hypothetically (:func:`hypothetical_remote_parts`), evaluates the
    resulting deployment through :func:`hypothetical_consumption`, and
    returns the newcomer's own per-user ``E + T`` with the link *rtt*
    charged by :func:`charge_link_rtt` — the same charge
    :meth:`~repro.fleet.fleet.EdgeFleet.total_consumption` applies, so the
    admission check and the violation report speak one unit.
    """
    remote = hypothetical_remote_parts(server, device, app, plan)
    consumption = hypothetical_consumption(
        server, extra=(device, app.call_graph, app, remote)
    )
    breakdown = charge_link_rtt(consumption.per_user[device.device_id], rtt)
    return weights.combine(breakdown.energy, breakdown.time)
