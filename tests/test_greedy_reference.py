"""Algorithm 2 against references: the numpy evaluator and per-user partitions.

:class:`NumpyPlacementEvaluator` is the greedy's evaluator as it was
before its tables moved onto the shared partition: per-pass numpy
arrays, ``float(ndarray[i])`` reads and per-user device terms recomputed
on every call.  The production :class:`~repro.mec.greedy.PlacementEvaluator`
must price every move and every placement bit for bit as it did, and
``generate_offloading_scheme`` over partitions shared by every user of a
graph must equal the same call with one partition built per user.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mec.greedy as greedy_module
from repro.core import make_planner
from repro.mec.admission import (
    EqualShareAllocation,
    FCFSQueueAllocation,
    ProportionalShareAllocation,
)
from repro.mec.channel import SharedChannel
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.energy import device_terms, remote_compute_time
from repro.mec.greedy import PlacementEvaluator, generate_offloading_scheme, initial_placement
from repro.mec.objective import ObjectiveWeights
from repro.mec.online import OnlinePlanner
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.workloads.applications import synthesize_application
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile


class NumpyPlacementEvaluator:
    """Reference: the array-per-pass evaluator, with no cached terms.

    Users in *frozen* offer no candidate moves; their weights are walked
    from their parts like everyone else's, never read from *frozen*."""

    def __init__(
        self,
        system: MECSystem,
        apps: Mapping[str, PartitionedApplication],
        remote: Mapping[str, set[int]],
        weights: ObjectiveWeights,
        rates: Mapping[str, float] | None = None,
        frozen: Mapping[str, tuple[float, float, float]] | None = None,
    ) -> None:
        self.system = system
        self.apps = apps
        self.weights = weights
        self.rates: dict[str, float] = dict(rates or {})
        self.frozen = set(frozen or {})
        self.remote: dict[str, set[int]] = {u: set(p) for u, p in remote.items()}
        self._part_adjacency: dict[str, list[list[tuple[int, float]]]] = {}
        self._comp: dict[str, np.ndarray] = {}
        self._anchor: dict[str, np.ndarray] = {}
        self._w_total: dict[str, np.ndarray] = {}
        self._w_remote: dict[str, np.ndarray] = {}
        for user_id, app in apps.items():
            n_parts = len(app.parts)
            adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n_parts)]
            w_total = np.zeros(n_parts)
            w_remote = np.zeros(n_parts)
            parts_remote = self.remote.get(user_id, set())
            for (i, j), weight in app.inter_comm.items():
                adjacency[i].append((j, weight))
                adjacency[j].append((i, weight))
                w_total[i] += weight
                w_total[j] += weight
                if j in parts_remote:
                    w_remote[i] += weight
                if i in parts_remote:
                    w_remote[j] += weight
            self._part_adjacency[user_id] = adjacency
            self._comp[user_id] = np.array([p.computation for p in app.parts])
            self._anchor[user_id] = np.array([p.anchor_traffic for p in app.parts])
            self._w_total[user_id] = w_total
            self._w_remote[user_id] = w_remote
        self._local_w: dict[str, float] = {}
        self._remote_w: dict[str, float] = {}
        self._cut: dict[str, float] = {}
        for user_id, app in apps.items():
            parts_remote = self.remote.get(user_id, set())
            self._local_w[user_id] = app.local_weight(parts_remote)
            self._remote_w[user_id] = app.remote_weight(parts_remote)
            self._cut[user_id] = app.cut_weight(parts_remote)
        self._cached_combined: float | None = None
        self._cached_server_time: float | None = None

    def _device_terms(self, user_id: str, local_w: float, cut: float) -> tuple[float, float]:
        device = self.system.user(user_id).device
        t_c, e_c, t_t, e_t = device_terms(
            device, local_w, cut, self.rates.get(user_id, device.bandwidth)
        )
        return e_c + e_t, t_c + t_t

    def _server_time_total(self, loads: Mapping[str, float]) -> float:
        allocation = self.system.allocation.allocate(self.system.server, loads)
        return sum(
            remote_compute_time(load, allocation.capacity_for(uid), allocation.waiting_for(uid))
            for uid, load in loads.items()
        )

    def combined(self) -> float:
        if self._cached_combined is not None:
            return self._cached_combined
        value = 0.0
        for user_id in self.apps:
            energy, device_time = self._device_terms(
                user_id, self._local_w[user_id], self._cut[user_id]
            )
            value += self.weights.energy * energy + self.weights.time * device_time
        value += self.weights.time * self._current_server_time()
        self._cached_combined = value
        return value

    def _current_server_time(self) -> float:
        if self._cached_server_time is None:
            self._cached_server_time = self._server_time_total(self._remote_w)
        return self._cached_server_time

    def _move_deltas(self, user_id: str, part_id: int) -> tuple[float, float, float]:
        computation = float(self._comp[user_id][part_id])
        delta_cut = float(
            -self._anchor[user_id][part_id]
            + 2.0 * self._w_remote[user_id][part_id]
            - self._w_total[user_id][part_id]
        )
        return (
            self._local_w[user_id] + computation,
            max(self._remote_w[user_id] - computation, 0.0),
            max(self._cut[user_id] + delta_cut, 0.0),
        )

    def evaluate_move(self, user_id: str, part_id: int) -> float:
        if part_id not in self.remote.get(user_id, set()):
            raise ValueError(f"part {part_id} of {user_id!r} is not remote")
        new_local, new_remote, new_cut = self._move_deltas(user_id, part_id)
        old_energy, old_time = self._device_terms(
            user_id, self._local_w[user_id], self._cut[user_id]
        )
        new_energy, new_time = self._device_terms(user_id, new_local, new_cut)
        delta_device = self.weights.energy * (new_energy - old_energy) + self.weights.time * (
            new_time - old_time
        )
        loads = dict(self._remote_w)
        loads[user_id] = new_remote
        delta_server = self._server_time_total(loads) - self._current_server_time()
        return self.combined() + delta_device + self.weights.time * delta_server

    def apply_move(self, user_id: str, part_id: int) -> None:
        new_local, new_remote, new_cut = self._move_deltas(user_id, part_id)
        self.remote[user_id].discard(part_id)
        self._local_w[user_id] = new_local
        self._remote_w[user_id] = new_remote
        self._cut[user_id] = new_cut
        w_remote = self._w_remote[user_id]
        for other, weight in self._part_adjacency[user_id][part_id]:
            w_remote[other] -= weight
        self._cached_combined = None
        self._cached_server_time = None

    def candidates(self) -> list[tuple[str, int]]:
        return [
            (user_id, part_id)
            for user_id in sorted(self.remote)
            if user_id not in self.frozen
            for part_id in sorted(self.remote[user_id])
        ]


POLICIES = [EqualShareAllocation(), ProportionalShareAllocation(), FCFSQueueAllocation()]
_PLANNER = make_planner("spectral")


@st.composite
def greedy_inputs(draw):
    """A 2-6 user system over 1-3 synthesized apps (users of one app share
    the graph object), each user on their own device, with a random
    allocation policy and an optional shared channel.  Returns the
    system, one partition per graph shared by its users, the bisections
    and a seed for the move order."""
    pool = [
        synthesize_application(
            f"app{k}",
            n_functions=draw(st.integers(8, 24)),
            seed=draw(st.integers(0, 10_000)),
            coupling=draw(st.sampled_from(["loose", "tight"])),
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    positive = lambda low, high: st.floats(low, high, allow_nan=False)  # noqa: E731
    users = [
        UserContext(
            MobileDevice(
                f"u{i}",
                profile=DeviceProfile(
                    compute_capacity=draw(positive(5.0, 200.0)),
                    power_compute=draw(positive(0.1, 2.0)),
                    power_transmit=draw(positive(0.5, 10.0)),
                    bandwidth=draw(positive(5.0, 200.0)),
                ),
            ),
            pool[i % len(pool)],
        )
        for i in range(draw(st.integers(2, 6)))
    ]
    # A channel at a small share of the users' own links makes the
    # whole-user withdrawal sweep flip users, often several in turn.
    bandwidth = sum(user.device.bandwidth for user in users)
    channel = (
        SharedChannel(capacity=draw(positive(0.05, 1.0)) * bandwidth)
        if draw(st.booleans())
        else None
    )
    system = MECSystem(
        EdgeServer(total_capacity=draw(positive(20.0, 2000.0))),
        users,
        allocation=draw(st.sampled_from(POLICIES)),
        channel=channel,
    )
    plans = {id(graph): _PLANNER.plan_user(graph) for graph in pool}
    shared = {
        id(graph): PartitionedApplication(f"app{k}", graph, plans[id(graph)].parts)
        for k, graph in enumerate(pool)
    }
    apps = {user.user_id: shared[id(user.call_graph)] for user in users}
    bisections = {user.user_id: plans[id(user.call_graph)].bisections for user in users}
    return system, apps, bisections, draw(st.integers(0, 2**32 - 1))


@given(greedy_inputs())
@settings(max_examples=60, deadline=None)
def test_evaluator_matches_numpy_reference_bit_for_bit(case):
    """Along one random move sequence from the initial placement, every
    candidate's evaluate_move and every combined() equal the reference's
    exactly, at the channel's rates for that placement when there is one."""
    system, apps, bisections, seed = case
    remote = initial_placement(apps, bisections)
    rates = system.evaluate_placement(apps, remote).effective_bandwidth
    weights = ObjectiveWeights()
    fast = PlacementEvaluator(system, apps, remote, weights, rates=rates)
    reference = NumpyPlacementEvaluator(system, apps, remote, weights, rates=rates)
    rng = np.random.default_rng(seed)
    while True:
        assert fast.combined() == reference.combined()
        candidates = reference.candidates()
        assert fast.candidates() == candidates
        if not candidates:
            break
        for user_id, part_id in candidates:
            assert fast.evaluate_move(user_id, part_id) == reference.evaluate_move(
                user_id, part_id
            )
        user_id, part_id = candidates[rng.integers(len(candidates))]
        fast.apply_move(user_id, part_id)
        reference.apply_move(user_id, part_id)


def _outcome(result) -> tuple:
    return (
        result.moves,
        result.history,
        result.remote_parts,
        result.consumption.per_user,
        result.consumption.effective_bandwidth,
        result.effective_rates,
        result.contention_rounds,
    )


def _assert_matches_references(system, apps, bisections, exhaustive: bool) -> None:
    fresh = {
        user_id: PartitionedApplication(user_id, app.call_graph, [p.functions for p in app.parts])
        for user_id, app in apps.items()
    }
    shared = generate_offloading_scheme(system, apps, bisections, exhaustive=exhaustive)
    per_user = generate_offloading_scheme(system, fresh, bisections, exhaustive=exhaustive)
    with mock.patch.object(greedy_module, "PlacementEvaluator", NumpyPlacementEvaluator):
        reference = generate_offloading_scheme(system, fresh, bisections, exhaustive=exhaustive)
    assert _outcome(shared) == _outcome(per_user) == _outcome(reference)
    again = system.evaluate_placement(apps, shared.remote_parts)
    assert shared.consumption.per_user == again.per_user
    assert shared.consumption.effective_bandwidth == again.effective_bandwidth
    assert shared.terms == system.placement_terms(apps, shared.remote_parts)


@given(greedy_inputs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_shared_partitions_plan_like_fresh_ones_and_the_reference(case, exhaustive):
    """Algorithm 2 over partitions shared by every user of a graph equals
    the same call over one freshly built partition per user, and the
    call with the numpy reference evaluator: the same moves, history,
    placement, consumption and rates, bit for bit.  Its consumption is
    also exactly what evaluate_placement gives the returned placement."""
    system, apps, bisections, _ = case
    _assert_matches_references(system, apps, bisections, exhaustive)


@pytest.mark.parametrize("channel", [False, True], ids=["private", "shared-channel"])
@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: type(policy).__name__)
def test_online_placement_of_frozen_users_matches_the_reference(policy, channel):
    """``OnlinePlanner.place`` prices the admitted users, frozen, at the
    weights the ledger recorded for them; the reference evaluator walks
    their parts.  Each newcomer's placement must be the same bit for
    bit, and its price what ``evaluate_placement`` gives the placement
    when every user's parts are walked."""
    profile = quick_profile().device
    shared_channel = SharedChannel(capacity=2 * profile.bandwidth) if channel else None
    planner = OnlinePlanner(
        EdgeServer(total_capacity=300.0),
        _PLANNER.cut_strategy,
        allocation=policy,
        channel=shared_channel,
    )
    graphs = [synthesize_application(f"app{k}", n_functions=30, seed=k) for k in range(3)]
    for k in range(6):
        device = MobileDevice(f"u{k}", profile=profile)
        graph = graphs[k % len(graphs)]
        plan = _PLANNER.plan_user(graph)
        app = PartitionedApplication(device.device_id, graph, plan.parts)
        fast = planner.place(device, app, plan)
        with mock.patch.object(greedy_module, "PlacementEvaluator", NumpyPlacementEvaluator):
            reference = planner.place(device, app, plan)
        assert _outcome(fast) == _outcome(reference)
        users = [*planner.users.values()]
        system = MECSystem(
            planner.server,
            [UserContext(user.device, user.graph) for user in users]
            + [UserContext(device, graph)],
            allocation=policy,
            channel=shared_channel,
        )
        apps = {user.user_id: user.app for user in users}
        apps[device.device_id] = app
        walked = system.evaluate_placement(apps, fast.remote_parts)
        assert fast.consumption.per_user == walked.per_user
        assert fast.consumption.effective_bandwidth == walked.effective_bandwidth
        planner.admit_partitioned(device, app, plan)
    assert all(user.weights == user.app.weights(user.remote) for user in planner.users.values())
    assert any(user.remote for user in planner.users.values())


# Recorded with the evaluator above and a sweep that evaluated every
# trial placement from scratch; lazy and exhaustive agree on this system.
GOLDEN_SWEEP = {
    "moves": [("user00010", 0), ("user00007", 0), ("user00004", 0), ("user00001", 0),
              ("user00009", 0), ("user00006", 0), ("user00003", 0), ("user00000", 0)],
    "history": ["0x1.f0304ed98fa53p+7", "0x1.e777f3761d275p+7", "0x1.ded9ee803ee45p+7",
                "0x1.d6563ff7f4dc2p+7", "0x1.cdece7dd3f0edp+7", "0x1.cb15af0f922dep+7",
                "0x1.c85bff7fafd8fp+7", "0x1.c5bfd92d980ffp+7", "0x1.c3413c194ad2dp+7"],
    "offloading": {"user00008": [1], "user00011": [1]},
    "combined": "0x1.06f016a4cda28p+8",
    "rate": 42.00000000000001,
}


@pytest.mark.parametrize("exhaustive", [False, True], ids=["lazy", "exhaustive"])
def test_withdrawal_sweep_with_several_flips_matches_references(exhaustive):
    """Random small systems rarely withdraw more than one user in the
    shared-channel sweep.  Twelve users of three 40-function apps on a
    channel at a tenth of their links withdraw two in turn, so each
    accepted flip must carry its user's new terms into the next trial:
    a sweep that kept the first flip's stale terms ends with three
    offloaders, not two."""
    profile = dataclasses.replace(
        quick_profile(), distinct_graphs=3, multiuser_graph_size=40, seed=11
    )
    channel = SharedChannel(capacity=0.1 * 12 * profile.device.bandwidth)
    workload = build_mec_system(12, profile, graph_size=40, channel=channel)
    partitions: dict[int, PartitionedApplication] = {}
    apps: dict[str, PartitionedApplication] = {}
    bisections = {}
    for user_id, graph in workload.call_graphs.items():
        plan = _PLANNER.plan_user(graph)
        if id(graph) not in partitions:
            partitions[id(graph)] = PartitionedApplication(user_id, graph, plan.parts)
        apps[user_id] = partitions[id(graph)]
        bisections[user_id] = plan.bisections
    assert len(partitions) == 3
    _assert_matches_references(workload.system, apps, bisections, exhaustive)
    result = generate_offloading_scheme(workload.system, apps, bisections, exhaustive=exhaustive)
    assert result.moves == GOLDEN_SWEEP["moves"]
    assert result.history == [float.fromhex(value) for value in GOLDEN_SWEEP["history"]]
    assert {u: sorted(p) for u, p in result.remote_parts.items() if p} == GOLDEN_SWEEP["offloading"]
    assert result.consumption.combined() == float.fromhex(GOLDEN_SWEEP["combined"])
    assert set(result.effective_rates.values()) == {GOLDEN_SWEEP["rate"]}
