"""Pricing a user's move between fleet servers.

The original rebalancer replayed a user's cached plan on the target
server *for free*, as if the offloaded state teleported.  In a real
deployment a migration re-transmits the offloaded input data over the
user's uplink to the new server and pays a control-plane handoff delay —
the component-movement cost that online edge-placement models
(arXiv:1605.08023) charge before approving a move.

:class:`MigrationCostModel` prices one move from the quantities the
paper's model already tracks: the *data* crossing the device/server
boundary under the user's current placement (the cut weight — exactly
what was transmitted to the old server and must be re-sent to the new
one) at the user's link rate, plus a configurable handoff latency.  The
result maps onto the paper's consumption vocabulary as a
:class:`~repro.mec.energy.ConsumptionBreakdown` whose only non-zero
terms are transmission (the re-send) and waiting (the handoff), so
fleet-wide ``E + T`` accounting absorbs migrations without any new
formula: see :meth:`repro.fleet.fleet.EdgeFleet.total_consumption`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mec.devices import MobileDevice
from repro.mec.energy import (
    ConsumptionBreakdown,
    transmission_energy,
    transmission_time,
)
from repro.mec.objective import ObjectiveWeights


@dataclass(frozen=True)
class MigrationCost:
    """The priced cost of moving one admitted user between servers."""

    data_units: float
    """Offloaded input data re-transmitted to the target server."""

    transmission_time: float
    """Re-send time at the user's link rate (formula (5) on the data)."""

    transmission_energy: float
    """Re-send energy at the user's transmit power (formula (4))."""

    handoff_latency: float
    """Control-plane delay of switching servers (waiting-time term)."""

    @property
    def time(self) -> float:
        """Total time charge: re-transmission plus handoff waiting."""
        return self.transmission_time + self.handoff_latency

    @property
    def energy(self) -> float:
        """Total energy charge (the handoff consumes no device energy)."""
        return self.transmission_energy

    def combined(self, weights: ObjectiveWeights | None = None) -> float:
        """The move's price in the planner's ``E + T`` currency."""
        weights = weights or ObjectiveWeights()
        return weights.combine(self.energy, self.time)

    def as_breakdown(self) -> ConsumptionBreakdown:
        """The cost in consumption-ledger form, ready to add to a user.

        The re-send lands in the transmission terms and the handoff in
        the waiting term (mirrored into the waiting-inclusive remote
        time, preserving the formula-(2) invariant that ``remote_time``
        already contains ``t_w``), so ``breakdown.time`` and
        ``breakdown.energy`` equal :attr:`time` and :attr:`energy`.
        """
        return ConsumptionBreakdown(
            local_energy=0.0,
            transmission_energy=self.transmission_energy,
            local_time=0.0,
            remote_time=self.handoff_latency,
            transmission_time=self.transmission_time,
            waiting_time=self.handoff_latency,
        )


@dataclass(frozen=True)
class MigrationCostModel:
    """Prices moves as re-transmission at the link rate plus a handoff.

    *data_scale* rescales the cut weight into re-sent data units (1.0
    treats the boundary-crossing communication weight as the offloaded
    input payload, the same reading formulas (4)/(5) use); a
    *handoff_latency* of zero with *data_scale* zero prices every move
    at nothing — the pre-migration "state teleports" behaviour, kept
    reachable as :meth:`free` for baselines and A/B benchmarks.
    """

    handoff_latency: float = 0.05
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.handoff_latency < 0:
            raise ValueError(
                f"handoff_latency must be >= 0, got {self.handoff_latency}"
            )
        if self.data_scale < 0:
            raise ValueError(f"data_scale must be >= 0, got {self.data_scale}")

    @classmethod
    def free(cls) -> "MigrationCostModel":
        """A model pricing every move at zero (the legacy behaviour)."""
        return cls(handoff_latency=0.0, data_scale=0.0)

    def cost(self, device: MobileDevice, data_units: float) -> MigrationCost:
        """Price moving *device*'s offloaded state to a new server.

        *data_units* is the offloaded input data under the user's
        current placement (the fleet passes the placement's cut weight);
        the re-send runs at the device's own uplink rate and transmit
        power — the "target link rate" is the same radio the original
        upload used.
        """
        if data_units < 0:
            raise ValueError(f"data_units must be >= 0, got {data_units}")
        data = data_units * self.data_scale
        return MigrationCost(
            data_units=data,
            transmission_time=transmission_time(data, device.bandwidth),
            transmission_energy=transmission_energy(data, device.power_transmit, device.bandwidth),
            handoff_latency=self.handoff_latency,
        )
