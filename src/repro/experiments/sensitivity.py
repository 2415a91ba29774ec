"""Parameter sensitivity: where does offloading stop paying?

The paper fixes one parameter regime; a deployment engineer needs to
know how the conclusion moves with the physical constants.  This
experiment sweeps one parameter at a time around the profile's defaults
— transmission power ``p_t``, uplink bandwidth ``b``, device capacity
``I_c``, server capacity per user — re-plans at every point, and reports
the offloaded fraction and consumption, exposing the crossover where the
scheme collapses to all-local.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.baselines import make_planner
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.system import MECSystem, UserContext
from repro.workloads.applications import call_graph_from_weighted_graph
from repro.workloads.netgen import NetgenConfig, netgen_graph
from repro.workloads.profiles import ExperimentProfile, quick_profile

SWEEPABLE = ("power_transmit", "bandwidth", "compute_capacity", "server_capacity")
"""Parameters the sensitivity experiment can sweep."""

DEFAULT_MULTIPLIERS: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class SensitivityRow:
    """One (parameter, multiplier) sample."""

    parameter: str
    multiplier: float
    value: float
    offloaded_fraction: float
    local_energy: float
    transmission_energy: float
    total_energy: float
    total_time: float


def run_sensitivity_experiment(
    parameter: str,
    profile: ExperimentProfile | None = None,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    graph_size: int | None = None,
    algorithm: str = "spectral",
) -> list[SensitivityRow]:
    """Sweep *parameter* over ``default * multiplier`` and re-plan.

    One user, one fixed workload graph (so the only thing changing is
    the parameter), the configured cut *algorithm*.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown parameter {parameter!r}; expected one of {SWEEPABLE}")
    profile = profile or quick_profile()
    size = graph_size if graph_size is not None else profile.graph_sizes[0]

    graph = netgen_graph(
        NetgenConfig(n_nodes=size, n_edges=profile.edges_for(size), seed=profile.seed)
    )
    call_graph = call_graph_from_weighted_graph(
        graph, unoffloadable_fraction=profile.unoffloadable_fraction, seed=profile.seed
    )
    offloadable_count = len(call_graph.offloadable_functions())
    planner = make_planner(algorithm)

    rows: list[SensitivityRow] = []
    for multiplier in multipliers:
        if multiplier <= 0:
            raise ValueError(f"multipliers must be > 0, got {multiplier}")
        device_profile = profile.device
        server_capacity = profile.server_capacity_per_user
        if parameter == "server_capacity":
            value = server_capacity * multiplier
            server_capacity = value
        else:
            value = getattr(device_profile, parameter) * multiplier
            device_profile = dataclasses.replace(device_profile, **{parameter: value})

        device = MobileDevice("user00000", profile=device_profile)
        system = MECSystem(
            EdgeServer(server_capacity), [UserContext(device, call_graph)]
        )
        result = planner.plan_system(system, {"user00000": call_graph})
        consumption = result.consumption
        rows.append(
            SensitivityRow(
                parameter=parameter,
                multiplier=multiplier,
                value=value,
                offloaded_fraction=(
                    result.scheme.offload_count("user00000") / offloadable_count
                    if offloadable_count
                    else 0.0
                ),
                local_energy=consumption.local_energy,
                transmission_energy=consumption.transmission_energy,
                total_energy=consumption.energy,
                total_time=consumption.time,
            )
        )
    return rows


def find_crossover(rows: Sequence[SensitivityRow]) -> float | None:
    """First multiplier at which offloading dies (fraction hits ~0).

    Returns ``None`` when offloading survives the whole sweep.  Rows must
    come from one sweep (monotone multipliers).
    """
    for row in rows:
        if row.offloaded_fraction < 1e-9:
            return row.multiplier
    return None
