"""Shared-channel contention sweep: blind vs. aware vs. best-response.

The paper's multi-user experiments price every upload at the private
device bandwidth ``b``.  This sweep puts the same workloads on a shared
wireless channel (:class:`~repro.mec.channel.SharedChannel`) and compares
three planning arms head-to-head as the co-offloading population grows:

* ``blind``  — the paper's greedy, planned at constant ``b``, then
  *executed* under the shared channel (what deploying the paper's
  planner on contended spectrum would actually cost);
* ``aware``  — the same greedy with the contention fixed point and
  withdrawal sweep (:func:`repro.mec.greedy.generate_offloading_scheme`
  with a channel-carrying system);
* ``game``   — the decentralized best-response equilibrium
  (:func:`repro.mec.game.best_response_equilibrium`), Chen et al.'s
  baseline: selfish users, no coordinator.

The referee is the discrete-event simulator in fair-share mode
(``shared_uplink_capacity``) — plans are judged by measured energy and
completion, not by their own cost model.

A separate *contention curve* isolates the physics from the planning:
one fixed solo placement, replicated across ``n`` co-offloading users,
evaluated under the channel — per-user ``e_t``/``t_t`` must rise
strictly with ``n`` (the claim BENCH_contention.json asserts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import make_planner
from repro.mec.channel import SharedChannel, make_quality_profile
from repro.mec.energy import transmission_energy, transmission_time
from repro.mec.game import best_response_equilibrium
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem
from repro.simulation.engine import simulate_scheme
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import ExperimentProfile, quick_profile

ARMS = ("blind", "aware", "game")
"""The three planning arms compared by the sweep."""


@dataclass(frozen=True)
class ContentionRow:
    """One (arm, user count) data point of the contention sweep."""

    arm: str
    n_users: int

    planned_combined: float
    """The arm's own modelled ``E + T`` for its placement (the blind
    arm's model ignores contention — that is the point)."""

    evaluated_combined: float
    """``E + T`` of the arm's placement re-evaluated under the shared
    channel (the contention-consistent planner model)."""

    simulated_energy: float
    """Measured device energy when the simulator executes the placement
    on the fair-share channel."""

    simulated_completion: float
    """Measured Σ per-user completion under the same execution."""

    offloaders: int
    """Users transmitting a non-empty cut in the arm's placement."""

    contention_rounds: int = 0
    """Fixed-point rounds the aware arm ran (0 for other arms)."""

    game_rounds: int = 0
    game_converged: bool = True
    """Best-response rounds and convergence (game arm only)."""


@dataclass(frozen=True)
class ContentionCurvePoint:
    """Per-user ``e_t``/``t_t`` of one fixed placement at ``n`` co-offloaders."""

    n_users: int
    effective_rate: float
    transmission_energy: float
    transmission_time: float


def contention_curve(
    profile: ExperimentProfile,
    channel: SharedChannel,
    user_counts: tuple[int, ...],
    algorithm: str = "spectral",
) -> list[ContentionCurvePoint]:
    """The physics in isolation: one solo-optimal placement, replicated.

    Plans a single user contention-blind, then reprices that user's
    transmission at ``b_i(n)`` for each ``n`` in *user_counts* as if
    ``n`` identical users co-offloaded.  Pure formula (4)/(5) at the
    load-dependent rate — no re-planning, so the per-user ``e_t`` and
    ``t_t`` must rise strictly with ``n`` whenever the shared capacity
    binds below the private link.
    """
    workload = build_mec_system(1, profile)
    planner = make_planner(algorithm)
    result = planner.plan_system(workload.system, workload.call_graphs)
    user_id = workload.system.users[0].user_id
    device = workload.system.users[0].device
    app = PartitionedApplication(
        user_id, workload.call_graphs[user_id], result.user_plans[user_id].parts
    )
    cut = app.cut_weight(result.greedy.remote_parts.get(user_id, set()))
    if cut <= 0:
        # The optimiser kept this app local (small apps often are) — the
        # curve is about the channel physics, not the decision, so fall
        # back to the everything-offloadable-remote placement, whose cut
        # to the pinned-local anchor is positive.
        cut = app.cut_weight({part.part_id for part in app.parts})
    points: list[ContentionCurvePoint] = []
    for n in user_counts:
        rate = channel.rate_for(user_id, n, device.bandwidth)
        points.append(
            ContentionCurvePoint(
                n_users=n,
                effective_rate=rate,
                transmission_energy=transmission_energy(cut, device.power_transmit, rate),
                transmission_time=transmission_time(cut, rate),
            )
        )
    return points


def run_contention_experiment(
    profile: ExperimentProfile | None = None,
    user_counts: tuple[int, ...] = (1, 2, 4, 6, 8),
    algorithm: str = "spectral",
    channel_capacity: float | None = None,
    quality_spread: float = 0.0,
    seed: int = 0,
) -> tuple[list[ContentionRow], list[ContentionCurvePoint]]:
    """Run the three-arm contention sweep plus the fixed-placement curve.

    *channel_capacity* defaults to the profile's device bandwidth — the
    regime where a lone offloader keeps their full link (constant-``b``
    parity) but any second offloader halves it.  *quality_spread*
    widens per-user channel gains via :func:`make_quality_profile`;
    *seed* keys both the quality draw and the game's visit order.
    """
    profile = profile or quick_profile()
    capacity = (
        channel_capacity if channel_capacity is not None else profile.device.bandwidth
    )

    rows: list[ContentionRow] = []
    for n_users in user_counts:
        blind_workload = build_mec_system(n_users, profile)
        user_ids = [u.user_id for u in blind_workload.system.users]
        channel = SharedChannel(
            capacity=capacity,
            quality=make_quality_profile(user_ids, spread=quality_spread, seed=seed),
        )
        aware_system = MECSystem(
            server=blind_workload.system.server,
            users=blind_workload.system.users,
            allocation=blind_workload.system.allocation,
            channel=channel,
        )
        planner = make_planner(algorithm)
        blind_result = planner.plan_system(blind_workload.system, blind_workload.call_graphs)
        apps = {
            uid: PartitionedApplication(
                uid, blind_workload.call_graphs[uid], blind_result.user_plans[uid].parts
            )
            for uid in user_ids
        }
        bisections = {
            uid: blind_result.user_plans[uid].bisections for uid in user_ids
        }

        aware_result = make_planner(algorithm).plan_system(
            aware_system, blind_workload.call_graphs
        )
        game_result = best_response_equilibrium(
            aware_system, apps, bisections, seed=seed
        )

        placements = {
            "blind": blind_result.greedy.remote_parts,
            "aware": aware_result.greedy.remote_parts,
            "game": game_result.remote_parts,
        }
        planned = {
            "blind": blind_result.consumption.combined(),
            "aware": aware_result.consumption.combined(),
            "game": game_result.consumption.combined(),
        }
        for arm in ARMS:
            placement = placements[arm]
            evaluated = aware_system.evaluate_placement(apps, placement)
            report = simulate_scheme(
                aware_system,
                apps,
                placement,
                shared_uplink_capacity=channel.capacity,
            )
            rows.append(
                ContentionRow(
                    arm=arm,
                    n_users=n_users,
                    planned_combined=planned[arm],
                    evaluated_combined=evaluated.combined(),
                    simulated_energy=report.total_energy,
                    simulated_completion=report.total_completion_time,
                    offloaders=sum(1 for parts in placement.values() if parts),
                    contention_rounds=(
                        aware_result.greedy.contention_rounds if arm == "aware" else 0
                    ),
                    game_rounds=game_result.rounds if arm == "game" else 0,
                    game_converged=game_result.converged if arm == "game" else True,
                )
            )

    curve_channel = SharedChannel(capacity=capacity)
    curve = contention_curve(profile, curve_channel, user_counts, algorithm)
    return rows, curve
