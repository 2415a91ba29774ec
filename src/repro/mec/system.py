"""The multi-user MEC system and its consumption evaluation.

``MECSystem`` binds users (device + application) to the shared edge
server and evaluates any placement — a mapping from user to the set of
parts placed remotely — into the paper's ``E`` and ``T`` totals: the
allocation policy grants each user server capacity and waiting, and
:func:`~repro.mec.energy.price_user` prices every user from formulas (1)-(5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.callgraph.model import FunctionCallGraph
from repro.mec.admission import AllocationPolicy, FCFSQueueAllocation
from repro.mec.channel import SharedChannel
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.energy import ConsumptionBreakdown, price_user
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import OffloadingScheme, PartitionedApplication


@dataclass(frozen=True)
class UserContext:
    """One user: their device and their application's call graph."""

    device: MobileDevice
    call_graph: FunctionCallGraph

    @property
    def user_id(self) -> str:
        """The device id doubles as the user id."""
        return self.device.device_id


@dataclass
class SystemConsumption:
    """System-wide totals plus the per-user breakdown."""

    per_user: dict[str, ConsumptionBreakdown] = field(default_factory=dict)

    effective_bandwidth: dict[str, float] = field(default_factory=dict)
    """Per-user effective uplink rate ``b_i(n)`` the transmission terms
    were priced at.  Populated only when the system carries a
    :class:`~repro.mec.channel.SharedChannel`; empty means every user
    was priced at their private device bandwidth (the paper's model)."""

    @property
    def energy(self) -> float:
        """``E = Σ_i e_c^i + Σ_i e_t^i`` (formula (6))."""
        return sum(b.energy for b in self.per_user.values())

    @property
    def local_energy(self) -> float:
        """``Σ_i e_c^i`` — the quantity plotted in Figs. 3 and 6."""
        return sum(b.local_energy for b in self.per_user.values())

    @property
    def transmission_energy(self) -> float:
        """``Σ_i e_t^i`` — the quantity plotted in Figs. 4 and 7."""
        return sum(b.transmission_energy for b in self.per_user.values())

    @property
    def time(self) -> float:
        """``T = Σ_i t_c^i + Σ_i t_s^i + Σ_i t_w^i``."""
        return sum(b.time for b in self.per_user.values())

    def combined(self, weights: ObjectiveWeights | None = None) -> float:
        """Scalarised objective (Algorithm 2's ``E + T`` by default)."""
        weights = weights or ObjectiveWeights()
        return weights.combine(self.energy, self.time)


class MECSystem:
    """The shared-server multi-user system of Section II."""

    def __init__(
        self,
        server: EdgeServer,
        users: list[UserContext],
        allocation: AllocationPolicy | None = None,
        channel: SharedChannel | None = None,
    ) -> None:
        if not users:
            raise ValueError("an MEC system needs at least one user")
        ids = [user.user_id for user in users]
        if len(set(ids)) != len(ids):
            raise ValueError("user ids must be unique")
        self.server = server
        self.users = list(users)
        self.allocation = allocation or FCFSQueueAllocation()
        self.channel = channel
        """Optional shared wireless channel: when set, co-offloading
        users split spectrum and formulas (4)/(5) are priced at the
        load-dependent effective rate ``b_i(n)`` instead of the private
        device bandwidth."""
        self._by_id = {user.user_id: user for user in self.users}

    def user(self, user_id: str) -> UserContext:
        """Return the user with the given id."""
        if user_id not in self._by_id:
            raise KeyError(f"unknown user {user_id!r}")
        return self._by_id[user_id]

    # ------------------------------------------------------------------
    # Placement evaluation
    # ------------------------------------------------------------------
    def evaluate_placement(
        self,
        apps: Mapping[str, PartitionedApplication],
        remote_parts: Mapping[str, set[int]],
    ) -> SystemConsumption:
        """Evaluate a part-level placement into system consumption.

        *apps* maps user id to the partitioned application; *remote_parts*
        maps user id to the part ids placed on the server.  Users absent
        from *remote_parts* run fully locally.

        With a :class:`~repro.mec.channel.SharedChannel` attached, the
        placement itself determines who transmits (cut weight > 0), so
        the effective rates need no iteration here: each user's
        transmission terms are priced at ``b_i(n)`` with ``n`` the
        number of co-offloading users under *this* placement, and the
        rates used are recorded on the returned consumption.
        """
        return self.price_terms(self.placement_terms(apps, remote_parts))

    def placement_terms(
        self,
        apps: Mapping[str, PartitionedApplication],
        remote_parts: Mapping[str, set[int]],
    ) -> dict[str, tuple[float, float, float]]:
        """Each user's ``(local, remote, cut)`` weights under a placement.

        Users without an application are left out.  These three numbers
        are all :meth:`price_terms` reads of a placement, so a caller
        that evaluates many placements differing in one user may reuse
        the other users' entries.
        """
        return {
            user.user_id: apps[user.user_id].weights(remote_parts.get(user.user_id, set()))
            for user in self.users
            if user.user_id in apps
        }

    def price_terms(
        self, terms: Mapping[str, tuple[float, float, float]]
    ) -> SystemConsumption:
        """Price per-user ``(local, remote, cut)`` weights (see
        :meth:`placement_terms`) into system consumption."""
        users = [user for user in self.users if user.user_id in terms]
        allocation = self.allocation.allocate(
            self.server, {user.user_id: terms[user.user_id][1] for user in users}
        )
        rates: dict[str, float] = {}
        if self.channel is not None:
            rates = self.channel.planning_rates(
                {user.user_id: user.device.bandwidth for user in users},
                [user.user_id for user in users if terms[user.user_id][2] > 0],
            )

        consumption = SystemConsumption()
        for user in users:
            user_id = user.user_id
            local, remote, cut = terms[user_id]
            consumption.per_user[user_id] = price_user(
                user.device,
                local,
                remote,
                cut,
                rates.get(user_id, user.device.bandwidth),
                allocation.capacity_for(user_id),
                allocation.waiting_for(user_id),
            )
        consumption.effective_bandwidth = rates
        return consumption

    def evaluate_scheme(
        self,
        apps: Mapping[str, PartitionedApplication],
        scheme: OffloadingScheme,
    ) -> SystemConsumption:
        """Evaluate a function-level scheme (convenience over placements)."""
        remote_parts: dict[str, set[int]] = {}
        for user_id, app in apps.items():
            remote = scheme.remote_for(user_id)
            parts = {
                part.part_id
                for part in app.parts
                if part.functions and part.functions <= remote
            }
            remote_parts[user_id] = parts
        return self.evaluate_placement(apps, remote_parts)
