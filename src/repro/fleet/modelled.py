"""Modelled costs behind fleet decisions, read from each server's ledger.

Two fleet mechanisms must answer "what *would* this server's ``E + T``
be?" without touching its ledger: cost-aware rebalancing (the gain of a
move is the drop in the two affected servers' modelled totals) and SLA
admission (a candidate server is feasible only if the newcomer's
modelled cost meets the deadline).  Both ask the server's
:class:`~repro.mec.online.OnlinePlanner`, which holds the server's users
and prices them, so neither keeps a copy of its state or of its
evaluation:

* :func:`hypothetical_consumption` prices the deployment with one user
  lifted out and/or one held up to it, at their recorded placements;
  :meth:`repro.fleet.fleet.FleetServer.modelled_combined` calls it for
  every edited term and reads the unedited total from the ledger;
* :func:`modelled_user_cost` runs the greedy placement admission would
  run (:meth:`~repro.mec.online.OnlinePlanner.place`, which changes
  nothing in the ledger), reads the newcomer's cost from the price that
  placement already carries, and returns the placement too, for the
  admitting server to commit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.mec.devices import MobileDevice
from repro.mec.energy import ConsumptionBreakdown
from repro.mec.online import OnlineUser, Placement
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import SystemConsumption

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.results import UserPlan
    from repro.fleet.fleet import FleetServer
    from repro.mec.objective import ObjectiveWeights


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
    extra: OnlineUser | None = None,
) -> SystemConsumption:
    """Consumption of *server*'s deployment under a hypothetical edit.

    Prices the server's current placements with *without* removed and/or
    *extra* (a user at its recorded placement, typically lifted from
    another server's ledger) added — no ledger change, no greedy run
    (:meth:`~repro.mec.online.OnlinePlanner.evaluate`).  Returns an empty
    :class:`SystemConsumption` for an empty hypothetical deployment.
    """
    return server.planner.evaluate(without=without, extra=extra)


def modelled_user_cost(
    server: "FleetServer",
    device: MobileDevice,
    app: PartitionedApplication,
    plan: "UserPlan",
    weights: "ObjectiveWeights",
    rtt: float = 0.0,
) -> tuple[float, Placement]:
    """*device*'s modelled scalarised cost if admitted on *server*, and
    the placement it would be admitted at.

    *app* is the newcomer's application partitioned from ``plan.parts``;
    it is only read, so one instance serves every candidate server.
    Runs the placement admission would make
    (:meth:`~repro.mec.online.OnlinePlanner.place`, which leaves the
    server's ledger as found) and returns the newcomer's own per-user
    ``E + T`` from that placement's price, with the link *rtt* charged
    by :func:`charge_link_rtt` — the same charge
    :meth:`~repro.fleet.fleet.EdgeFleet.total_consumption` applies, so the
    admission check and the violation report speak one unit.  The
    placement can be committed on *server* while its ledger is unchanged
    (:meth:`~repro.mec.online.OnlinePlanner.commit`).
    """
    placement = server.planner.place(device, app, plan)
    breakdown = charge_link_rtt(placement.greedy.consumption.per_user[device.device_id], rtt)
    return weights.combine(breakdown.energy, breakdown.time), placement
