"""Energy and time models — formulas (1) through (5) of the paper.

The only code that prices a user: :func:`price_user` composes (1)-(5)
into a :class:`ConsumptionBreakdown`, and :func:`device_terms` is its
scalar device side for the greedy's per-move path.  Formula (2) decides
both edge cases: a remote load ``<= MIN_REMOTE_LOAD`` is idle (no server
time, no waiting), and one above it granted capacity ``<= 0`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mec.devices import MobileDevice
from repro.utils.validation import ensure_non_negative, ensure_positive

MIN_REMOTE_LOAD = 1e-12
"""Remote loads at or below this are idle: computation weights are O(1)+
in every workload, and double-precision shares of smaller loads can
underflow to zero capacity, which formula (2) would reject."""


def local_compute_time(local_weight: float, capacity: float) -> float:
    """Formula (1): ``t_c = sum(w_j, v_j in V_c) / I_c``."""
    ensure_non_negative(local_weight, "local_weight")
    ensure_positive(capacity, "capacity")
    return local_weight / capacity


def remote_compute_time(remote_weight: float, allocated_capacity: float, waiting: float) -> float:
    """Formula (2): ``t_s = sum(w_j, v_j in V_s) / I_s + wt``.

    An idle user (remote weight ``<= MIN_REMOTE_LOAD``) spends no server
    time and no waiting regardless of allocation, so a zero allocation is
    then legal; above the floor it raises ``ValueError``.
    """
    ensure_non_negative(remote_weight, "remote_weight")
    ensure_non_negative(waiting, "waiting")
    if remote_weight <= MIN_REMOTE_LOAD:
        return 0.0
    ensure_positive(allocated_capacity, "allocated_capacity")
    return remote_weight / allocated_capacity + waiting


def local_energy(local_time: float, power_compute: float) -> float:
    """Formula (3): ``e_c = t_c * p_c``."""
    ensure_non_negative(local_time, "local_time")
    ensure_positive(power_compute, "power_compute")
    return local_time * power_compute


def transmission_energy(cut_weight: float, power_transmit: float, bandwidth: float) -> float:
    """Formula (4): ``e_t = sum s(v_j, v_l) * p_t / b`` over the cut."""
    ensure_non_negative(cut_weight, "cut_weight")
    ensure_positive(power_transmit, "power_transmit")
    ensure_positive(bandwidth, "bandwidth")
    return cut_weight * power_transmit / bandwidth


def transmission_time(cut_weight: float, bandwidth: float) -> float:
    """Formula (5): ``t_t = sum s(v_j, v_l) / b`` over the cut."""
    ensure_non_negative(cut_weight, "cut_weight")
    ensure_positive(bandwidth, "bandwidth")
    return cut_weight / bandwidth


@dataclass(frozen=True)
class ConsumptionBreakdown:
    """One user's complete consumption under a given placement."""

    local_energy: float
    transmission_energy: float
    local_time: float
    remote_time: float
    transmission_time: float
    waiting_time: float

    @property
    def energy(self) -> float:
        """This user's contribution to ``E = Σ e_c + Σ e_t``."""
        return self.local_energy + self.transmission_energy

    @property
    def time(self) -> float:
        """This user's contribution to ``T = Σ t_c + Σ t_s + Σ t_w``.

        ``remote_time`` already includes the waiting term per formula (2);
        the paper's ``T`` lists ``t_w`` separately, so here ``time`` is
        ``t_c + t_s`` with ``t_s`` the waiting-inclusive remote time, plus
        the transmission time the cut imposes on the critical path.
        """
        return self.local_time + self.remote_time + self.transmission_time

    def combined(self, energy_weight: float = 1.0, time_weight: float = 1.0) -> float:
        """Scalarised objective contribution (Algorithm 2's ``E + T``)."""
        return energy_weight * self.energy + time_weight * self.time

    def __add__(self, other: "ConsumptionBreakdown") -> "ConsumptionBreakdown":
        return ConsumptionBreakdown(
            self.local_energy + other.local_energy,
            self.transmission_energy + other.transmission_energy,
            self.local_time + other.local_time,
            self.remote_time + other.remote_time,
            self.transmission_time + other.transmission_time,
            self.waiting_time + other.waiting_time,
        )


def device_terms(
    device: MobileDevice, local_weight: float, cut: float, rate: float
) -> tuple[float, float, float, float]:
    """Formulas (1), (3), (5), (4) as floats ``(t_c, e_c, t_t, e_t)``."""
    t_c = local_compute_time(local_weight, device.compute_capacity)
    return (
        t_c,
        local_energy(t_c, device.power_compute),
        transmission_time(cut, rate),
        transmission_energy(cut, device.power_transmit, rate),
    )


def price_user(
    device: MobileDevice,
    local_weight: float,
    remote_weight: float,
    cut: float,
    rate: float,
    capacity: float,
    waiting: float,
) -> ConsumptionBreakdown:
    """One user's consumption from formulas (1)-(5); *capacity* and
    *waiting* are the allocation's ``I_s`` and ``wt`` for this user."""
    t_c, e_c, t_t, e_t = device_terms(device, local_weight, cut, rate)
    return ConsumptionBreakdown(
        local_energy=e_c,
        transmission_energy=e_t,
        local_time=t_c,
        remote_time=remote_compute_time(remote_weight, capacity, waiting),
        transmission_time=t_t,
        waiting_time=waiting if remote_weight > MIN_REMOTE_LOAD else 0.0,
    )
