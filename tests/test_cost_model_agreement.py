"""One cost model: the planner, the greedy, the fleet ledger and the simulator agree.

Formulas (1)-(5) are composed in :mod:`repro.mec.energy` only.  On random
systems — 1-5 users with random device profiles, random 2-part apps with
a pinned anchor, random placements, every allocation policy, with and
without a :class:`~repro.mec.channel.SharedChannel` — this module checks
that every consumer of that model reads the same numbers:

* the greedy's incremental :class:`~repro.mec.greedy.PlacementEvaluator`
  equals :meth:`~repro.mec.system.MECSystem.evaluate_placement` to
  ``rel=1e-12`` (the two only sum the same terms in a different order);
* :func:`~repro.fleet.fleet.all_local_breakdown` equals the evaluation of
  that user with nothing remote;
* the fleet's hypothetical evaluation and its ledger equal the live model
  per user;
* the discrete-event simulator, an independent model, is the referee.
  With private uplinks its total, local and transmission energy equal the
  model's to ``rel=1e-9``.  On a shared channel (capacity equal to the
  model channel's, default channel quality) the simulator re-paces the
  surviving uploads faster as others finish, while the model prices
  every upload at the rate it gets while all co-offloaders transmit, so
  simulated energy is at most the model's plus ``rel=1e-9`` — never
  higher, often lower.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgraph.model import FunctionCallGraph
from repro.fleet.fleet import EdgeFleet, all_local_breakdown
from repro.fleet.modelled import hypothetical_consumption
from repro.mec.admission import (
    EqualShareAllocation,
    FCFSQueueAllocation,
    ProportionalShareAllocation,
)
from repro.mec.channel import SharedChannel
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.greedy import PlacementEvaluator
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.simulation import simulate_scheme

POLICIES = [
    EqualShareAllocation(),
    ProportionalShareAllocation(),
    FCFSQueueAllocation(),
]

_weights = st.floats(0.5, 100.0, allow_nan=False, allow_infinity=False)
_flows = st.floats(0.5, 30.0, allow_nan=False, allow_infinity=False)


@st.composite
def users(draw, user_id: str):
    """One user: a random device, a 2-part app with a pinned anchor, and
    a random remote part set."""
    profile = DeviceProfile(
        compute_capacity=draw(st.floats(1.0, 200.0)),
        power_compute=draw(st.floats(0.1, 5.0)),
        power_transmit=draw(st.floats(0.1, 20.0)),
        bandwidth=draw(st.floats(1.0, 200.0)),
    )
    fcg = FunctionCallGraph(user_id)
    fcg.add_function("pin", computation=draw(_weights), offloadable=False)
    part_sets: list[set[str]] = []
    for p in range(2):
        members = {f"p{p}f{k}" for k in range(draw(st.integers(1, 2)))}
        for name in sorted(members):
            fcg.add_function(name, computation=draw(_weights))
        part_sets.append(members)
    first = [sorted(members)[0] for members in part_sets]
    for name in first:
        if draw(st.booleans()):
            fcg.add_data_flow("pin", name, draw(_flows))
    if draw(st.booleans()):
        fcg.add_data_flow(first[0], first[1], draw(_flows))
    for members in part_sets:
        if len(members) == 2:
            fcg.add_data_flow(*sorted(members), draw(_flows))
    app = PartitionedApplication(user_id, fcg, part_sets)
    remote = draw(st.sets(st.sampled_from([0, 1])))
    return MobileDevice(user_id, profile=profile), fcg, app, remote


@st.composite
def systems(draw):
    """A random system, its apps and a random placement."""
    n_users = draw(st.integers(1, 5))
    drawn = [draw(users(f"u{k}")) for k in range(n_users)]
    channel = None
    if draw(st.booleans()):
        channel = SharedChannel(capacity=draw(st.floats(1.0, 300.0)))
    system = MECSystem(
        EdgeServer(total_capacity=draw(st.floats(10.0, 2000.0))),
        [UserContext(device, fcg) for device, fcg, _, _ in drawn],
        allocation=draw(st.sampled_from(POLICIES)),
        channel=channel,
    )
    apps = {device.device_id: app for device, _, app, _ in drawn}
    remote = {device.device_id: parts for device, _, _, parts in drawn}
    return system, apps, remote


@given(systems())
@settings(max_examples=150, deadline=None)
def test_greedy_evaluator_matches_system_model(case):
    system, apps, remote = case
    model = system.evaluate_placement(apps, remote)
    evaluator = PlacementEvaluator(
        system,
        apps,
        remote,
        ObjectiveWeights(),
        rates=model.effective_bandwidth,
    )
    assert evaluator.combined() == pytest.approx(model.combined(), rel=1e-12)
    if system.channel is None:
        # Without a channel no move changes anyone's rate, so every
        # candidate move prices exactly as the re-evaluated placement.
        for user_id, part_id in evaluator.candidates():
            moved = {**remote, user_id: remote[user_id] - {part_id}}
            assert evaluator.evaluate_move(user_id, part_id) == pytest.approx(
                system.evaluate_placement(apps, moved).combined(), rel=1e-12
            )


@given(systems())
@settings(max_examples=100, deadline=None)
def test_all_local_breakdown_is_the_model_with_nothing_remote(case):
    system, apps, _ = case
    model = system.evaluate_placement(apps, {})
    for user in system.users:
        expected = model.per_user[user.user_id]
        actual = all_local_breakdown(user.device, user.call_graph)
        # Same formulas; the local weight is summed per part vs per graph.
        assert astuple(actual) == pytest.approx(astuple(expected), rel=1e-12)


@given(systems())
@settings(max_examples=40, deadline=None)
def test_fleet_ledger_matches_the_model(case):
    system, _, _ = case
    fleet = EdgeFleet(
        1,
        system.server.total_capacity,
        allocation=system.allocation,
        channel=system.channel,
        forecaster=None,
    )
    for user in system.users:
        fleet.admit(user.device, user.call_graph)
    (server,) = fleet.servers.values()
    state = server.planner.state
    model = system.evaluate_placement(state.apps, state.remote_parts).per_user
    assert server.current_consumption().per_user == model
    assert hypothetical_consumption(server).per_user == model
    # A zero-latency fleet charges no RTT: its ledger is the model.
    assert fleet.total_consumption().per_user == model
    # Lifting the last user out and holding them back up changes nobody's
    # cost (the last, so every allocation sums loads in the same order).
    user = system.users[-1]
    lifted = hypothetical_consumption(
        server,
        without=user.user_id,
        extra=(
            user.device,
            user.call_graph,
            state.apps[user.user_id],
            state.remote_parts[user.user_id],
        ),
    )
    assert lifted.per_user == model


@given(systems())
@settings(max_examples=150, deadline=None)
def test_simulator_referees_the_energy_model(case):
    system, apps, remote = case
    model = system.evaluate_placement(apps, remote)
    if system.channel is None:
        report = simulate_scheme(system, apps, remote)
        assert report.total_energy == pytest.approx(model.energy, rel=1e-9)
        assert report.total_local_energy == pytest.approx(model.local_energy, rel=1e-9)
        assert report.total_transmission_energy == pytest.approx(
            model.transmission_energy, rel=1e-9
        )
    else:
        report = simulate_scheme(
            system, apps, remote, shared_uplink_capacity=system.channel.capacity
        )
        assert report.total_local_energy == pytest.approx(model.local_energy, rel=1e-9)
        assert report.total_energy <= model.energy * (1 + 1e-9)
        assert report.total_transmission_energy <= model.transmission_energy * (1 + 1e-9)
