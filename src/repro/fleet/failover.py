"""Server-outage failover: drain the dead server, re-admit on survivors.

Integrates the fleet with :mod:`repro.simulation.faults`: a
:class:`~repro.simulation.faults.ServerOutage` names a fleet server and
a time, and :func:`handle_outage` plays the recovery out — the dead
server's users are drained and re-routed through the fleet's normal
admission path (so the routing policy, per-server caches, any
``max_users_per_server`` cap and each user's SLA deadline all apply),
and whoever no surviving server can take falls back to degraded
all-local execution.  No user is ever
lost: every drained user ends up either re-admitted or degraded, and
both states have finite ``E + T`` by construction.

Re-admission is not free: each reassigned user re-transmits their
offloaded input data to the new server and pays the handoff latency, so
every reassignment is charged through the fleet's
:class:`~repro.fleet.migration.MigrationCostModel` and the charge lands
in the fleet's ``SystemConsumption`` waiting/transmission terms.  After
the drained users are placed, any capacity still free is offered to
previously-degraded users via :meth:`~repro.fleet.fleet.EdgeFleet.retry_degraded`
(and :func:`revive_server` does the same when a machine returns), so
degraded users are a queue, not a terminal state.

:func:`apply_outages` replays a time-ordered schedule of outages (the
fault-schedule idiom of :func:`repro.simulation.engine.simulate_scheme`)
and returns one report per outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.fleet import EdgeFleet
from repro.mec.system import SystemConsumption
from repro.simulation.faults import ServerOutage


@dataclass
class FailoverReport:
    """What one outage did to the fleet."""

    server_id: str
    drained_users: int
    reassigned: dict[str, str] = field(default_factory=dict)
    """user id -> surviving server that re-admitted them."""

    degraded: list[str] = field(default_factory=list)
    """Users no survivor could take; now running all-local."""

    recovered: dict[str, str] = field(default_factory=dict)
    """Previously-degraded users re-admitted after the reshuffle."""

    migration_cost: float = 0.0
    """Total ``E + T`` charged for re-transmitting reassigned users' state."""

    consumption_after: SystemConsumption = field(default_factory=SystemConsumption)

    @property
    def lost_users(self) -> int:
        """Always 0 by construction; kept explicit for assertions."""
        return self.drained_users - len(self.reassigned) - len(self.degraded)


def handle_outage(fleet: EdgeFleet, outage: ServerOutage) -> FailoverReport:
    """Kill ``outage.server_id`` and re-admit its users on the survivors.

    Users are re-admitted in their original admission order through
    :meth:`EdgeFleet.readmit`, so re-routing respects the fleet's
    policy, capacity caps and each user's SLA, with the request key and
    plan the dead server held.  Each reassigned user is charged the
    migration cost of the move (their offloaded input data did not
    teleport to the survivor).  A user no survivor can take — zero
    surviving capacity, or no server that meets their deadline —
    degrades to all-local execution instead of being dropped, even
    under an SLA that would reject a new arrival.  Degraded users — from this outage or earlier — are then
    offered whatever capacity remains via
    :meth:`EdgeFleet.retry_degraded`.
    """
    drained = fleet.kill_server(outage.server_id)
    report = FailoverReport(server_id=outage.server_id, drained_users=len(drained))
    weights = fleet.config.objective
    for user, key in drained:
        admission = fleet.readmit(user, key)
        if admission.degraded:
            report.degraded.append(admission.user_id)
        else:
            assert admission.server_id is not None
            report.reassigned[admission.user_id] = admission.server_id
            cost = fleet.charge_migration(admission.user_id)
            report.migration_cost += cost.combined(weights)
    for admission in fleet.retry_degraded():
        assert admission.server_id is not None
        report.recovered[admission.user_id] = admission.server_id
    report.consumption_after = fleet.total_consumption()
    fleet.metrics.counter("fleet_failover_reassigned").inc(len(report.reassigned))
    fleet.metrics.counter("fleet_failover_degraded").inc(len(report.degraded))
    return report


def apply_outages(fleet: EdgeFleet, outages: list[ServerOutage]) -> list[FailoverReport]:
    """Replay *outages* in time order; returns one report per outage."""
    return [
        handle_outage(fleet, outage)
        for outage in sorted(outages, key=lambda fault: fault.time)
    ]
