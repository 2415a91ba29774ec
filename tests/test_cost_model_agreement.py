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
from repro.fleet.failover import handle_outage
from repro.fleet.fleet import EdgeFleet, all_local_breakdown
from repro.fleet.routing import FingerprintAffinityRouting
from repro.forecast.sla import UserSLA
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
from repro.mec.system import MECSystem, SystemConsumption, UserContext
from repro.simulation import simulate_scheme
from repro.simulation.faults import ServerOutage
from repro.workloads.applications import synthesize_application
from repro.workloads.traces import call_graph_from_dict, call_graph_to_dict

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
@settings(max_examples=100, deadline=None)
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
    placements = {uid: server.placement_of(uid) for uid in server.admitted}
    model = system.evaluate_placement(
        {uid: app for uid, (app, _) in placements.items()},
        {uid: remote for uid, (_, remote) in placements.items()},
    ).per_user
    assert server.current_consumption().per_user == model
    assert hypothetical_consumption(server).per_user == model
    # A zero-latency fleet charges no RTT: its ledger is the model.
    assert fleet.total_consumption().per_user == model
    # Lifting the last user out and holding them back up changes nobody's
    # cost (the last, so every allocation sums loads in the same order).
    user = system.users[-1]
    lifted = hypothetical_consumption(
        server, without=user.user_id, extra=server.admitted[user.user_id]
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


_APPS = [
    synthesize_application(f"ledger{k}", n_functions=12, seed=40 + k) for k in range(3)
]
_DEVICES = [
    DeviceProfile(compute_capacity=20.0, power_compute=1.0, power_transmit=6.0, bandwidth=70.0),
    DeviceProfile(compute_capacity=8.0, power_compute=2.0, power_transmit=3.0, bandwidth=150.0),
]
_SLAS = [None, UserSLA(1e6), UserSLA(1e-3)]

_KINDS = ["admit"] * 4 + ["rebalance", "proactive"] * 2 + ["outage", "revive"]


@st.composite
def fleet_steps(draw):
    """One fleet operation and its arguments, admissions weighted up."""
    kind = draw(st.sampled_from(_KINDS))
    if kind == "admit":
        return (
            kind,
            draw(st.integers(0, len(_APPS) - 1)),
            draw(st.integers(0, len(_DEVICES) - 1)),
            draw(st.integers(0, len(_SLAS) - 1)),
        )
    if kind == "rebalance":
        return kind, draw(st.booleans())
    if kind == "proactive":
        return kind, draw(st.floats(0.2, 1.5))
    return kind, draw(st.integers(0, 2))


def assert_ledger_is_the_model(server, allocation, channel):
    """*server*'s ledger equals a fresh evaluation of its users: equal
    object, equal per-user order, equal combined value."""
    ledger = server.current_consumption()
    ids = list(server.admitted)
    if not ids:
        assert ledger == SystemConsumption()
        return
    placements = {uid: server.placement_of(uid) for uid in ids}
    system = MECSystem(
        server.server,
        [UserContext(server.admitted[uid].device, placements[uid][0].call_graph) for uid in ids],
        allocation=allocation,
        channel=channel,
    )
    fresh = system.evaluate_placement(
        {uid: app for uid, (app, _) in placements.items()},
        {uid: remote for uid, (_, remote) in placements.items()},
    )
    assert ledger == fresh
    assert list(ledger.per_user) == ids == list(fresh.per_user)
    assert ledger.combined() == fresh.combined()


@given(
    steps=st.lists(fleet_steps(), min_size=8, max_size=20),
    allocation=st.sampled_from(POLICIES),
    contended=st.booleans(),
    affinity=st.booleans(),
    cap=st.sampled_from([None, 3]),
)
@settings(max_examples=100, deadline=None)
def test_fleet_ledger_is_a_fresh_evaluation_after_every_step(
    steps, allocation, contended, affinity, cap
):
    """Admissions, reactive and proactive rebalances, outages and
    revivals, in any order: after each step every live server's
    ``current_consumption()`` is exactly what re-pricing its users from
    scratch gives."""
    channel = SharedChannel(capacity=120.0) if contended else None
    fleet = EdgeFleet(
        capacities=[150.0, 400.0, 900.0],
        allocation=allocation,
        channel=channel,
        routing=FingerprintAffinityRouting() if affinity else None,
        max_users_per_server=cap,
    )
    ids = list(fleet.servers)
    arrivals = 0
    for step in steps:
        kind = step[0]
        if kind == "admit":
            _, app, device, sla = step
            fleet.admit(
                MobileDevice(f"u{arrivals}", profile=_DEVICES[device]),
                call_graph_from_dict(call_graph_to_dict(_APPS[app])),
                sla=_SLAS[sla],
            )
            arrivals += 1
        elif kind == "rebalance":
            fleet.rebalance(cost_aware=step[1])
        elif kind == "proactive":
            fleet.rebalance(proactive=True, utilisation_threshold=step[1])
        elif kind == "outage":
            if ids[step[1]] in fleet.servers:
                handle_outage(fleet, ServerOutage(time=0.0, server_id=ids[step[1]]))
        else:
            dead = [sid for sid in ids if sid not in fleet.servers]
            if dead:
                fleet.revive_server(dead[step[1] % len(dead)])
        for server in fleet.servers.values():
            assert_ledger_is_the_model(server, allocation, channel)
