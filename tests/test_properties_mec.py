"""Property-based tests: MEC model, allocation policies and greedy."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgraph.model import FunctionCallGraph
from repro.core import make_planner
from repro.mec.admission import (
    EqualShareAllocation,
    FCFSQueueAllocation,
    ProportionalShareAllocation,
)
from repro.mec.channel import SharedChannel
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.greedy import generate_offloading_scheme, initial_placement
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.service.http import graph_to_payload, parse_graph_payload
from repro.workloads.applications import (
    call_graph_from_weighted_graph,
    synthesize_application,
)
from repro.workloads.netgen import NetgenConfig, netgen_graph
from repro.workloads.profiles import quick_profile

POLICIES = [
    EqualShareAllocation(),
    ProportionalShareAllocation(),
    FCFSQueueAllocation(),
]


@st.composite
def loads(draw):
    """A dict of user id -> non-negative remote load."""
    n = draw(st.integers(1, 8))
    return {
        f"u{i}": draw(st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
        for i in range(n)
    }


@st.composite
def partitioned_app(draw, user_id: str = "u1"):
    """A random call graph pre-sliced into 2-5 parts."""
    n_parts = draw(st.integers(2, 5))
    fcg = FunctionCallGraph("prop")
    fcg.add_function("pin", computation=draw(st.floats(1.0, 50.0)), offloadable=False)
    part_sets: list[set[str]] = []
    fn_index = 0
    for p in range(n_parts):
        size = draw(st.integers(1, 3))
        members: set[str] = set()
        for _ in range(size):
            name = f"f{fn_index}"
            fn_index += 1
            fcg.add_function(name, computation=draw(st.floats(1.0, 100.0)))
            members.add(name)
        part_sets.append(members)
    # Sprinkle flows: pin <-> first member of each part, chains across parts.
    for p, members in enumerate(part_sets):
        first = sorted(members)[0]
        if draw(st.booleans()):
            fcg.add_data_flow("pin", first, draw(st.floats(0.5, 30.0)))
        if p > 0:
            prev = sorted(part_sets[p - 1])[0]
            fcg.add_data_flow(prev, first, draw(st.floats(0.5, 30.0)))
    return PartitionedApplication(user_id, fcg, part_sets)


@given(loads())
@settings(max_examples=60, deadline=None)
def test_allocation_policies_basic_invariants(remote_loads):
    server = EdgeServer(total_capacity=100.0)
    for policy in POLICIES:
        allocation = policy.allocate(server, remote_loads)
        for user, load in remote_loads.items():
            capacity = allocation.capacity_for(user)
            waiting = allocation.waiting_for(user)
            assert waiting >= 0.0
            assert capacity >= 0.0
            if load > 1e-12:  # policies treat smaller loads as idle
                assert capacity > 0.0, f"{type(policy).__name__} starved {user}"
            elif load == 0.0:
                assert capacity == 0.0
                assert waiting == 0.0


@given(loads())
@settings(max_examples=60, deadline=None)
def test_share_policies_never_exceed_server_capacity(remote_loads):
    server = EdgeServer(total_capacity=100.0)
    for policy in (EqualShareAllocation(), ProportionalShareAllocation()):
        allocation = policy.allocate(server, remote_loads)
        assert sum(allocation.capacity.values()) <= server.total_capacity + 1e-9


@given(loads())
@settings(max_examples=60, deadline=None)
def test_fcfs_waiting_is_cumulative_backlog(remote_loads):
    server = EdgeServer(total_capacity=100.0)
    allocation = FCFSQueueAllocation().allocate(server, remote_loads)
    active = sorted(u for u, load in remote_loads.items() if load > 1e-12)
    backlog = 0.0
    for user in active:
        assert allocation.waiting_for(user) == np.float64(backlog) / 100.0
        backlog += remote_loads[user]


@given(partitioned_app())
@settings(max_examples=40, deadline=None)
def test_cut_weight_subadditive_under_union(app):
    """Placing two groups remotely can never cross more traffic than the
    sum of placing each alone (shared internal edges stop crossing)."""
    all_ids = {p.part_id for p in app.parts}
    half = {p for p in all_ids if p % 2 == 0}
    other = all_ids - half
    together = app.cut_weight(all_ids)
    assert together <= app.cut_weight(half) + app.cut_weight(other) + 1e-9


@given(partitioned_app())
@settings(max_examples=40, deadline=None)
def test_weights_conserved_by_placement(app):
    """local + remote computation is placement-invariant."""
    all_ids = {p.part_id for p in app.parts}
    subsets = [set(), {0}, all_ids, {p for p in all_ids if p % 2 == 1}]
    totals = {app.local_weight(s) + app.remote_weight(s) for s in subsets}
    assert len(totals) == 1 or max(totals) - min(totals) < 1e-9


@given(partitioned_app(), st.integers(0, len(POLICIES) - 1))
@settings(max_examples=30, deadline=None)
def test_greedy_history_monotone_and_feasible(app, policy_index):
    device = MobileDevice(
        "u1",
        profile=DeviceProfile(
            compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
        ),
    )
    system = MECSystem(
        EdgeServer(total_capacity=200.0),
        [UserContext(device, app.call_graph)],
        allocation=POLICIES[policy_index],
    )
    all_ids = {p.part_id for p in app.parts}
    bisections = [({min(all_ids)}, all_ids - {min(all_ids)})]
    result = generate_offloading_scheme(system, {"u1": app}, {"u1": bisections})
    # Monotone objective trajectory.
    for earlier, later in zip(result.history, result.history[1:]):
        assert later <= earlier + 1e-9
    # Pinned function never offloaded.
    assert "pin" not in result.scheme.remote_for("u1")
    # Final consumption consistent with an independent evaluation.
    recomputed = system.evaluate_placement({"u1": app}, result.remote_parts)
    assert np.isclose(result.consumption.combined(), recomputed.combined())


@given(partitioned_app())
@settings(max_examples=25, deadline=None)
def test_greedy_lazy_equals_exhaustive(app):
    device = MobileDevice(
        "u1",
        profile=DeviceProfile(
            compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
        ),
    )
    system = MECSystem(EdgeServer(200.0), [UserContext(device, app.call_graph)])
    all_ids = {p.part_id for p in app.parts}
    bisections = [(set(), all_ids)]
    lazy = generate_offloading_scheme(system, {"u1": app}, {"u1": bisections})
    full = generate_offloading_scheme(
        system, {"u1": app}, {"u1": bisections}, exhaustive=True
    )
    assert np.isclose(
        lazy.consumption.combined(), full.consumption.combined(), rtol=1e-9
    )


def _reference_partition(call_graph, part_sets):
    """The per-part construction :class:`PartitionedApplication` replaced:
    one ``local_anchor_traffic`` scan per part, then a separate edge walk.
    Returns ((computation, anchor) per part, inter_comm items in insertion
    order, pinned computation)."""
    import math

    graph = call_graph.graph
    cleaned = [frozenset(part) for part in part_sets if part]
    parts = []
    membership = {}
    for index, functions in enumerate(cleaned):
        computation = math.fsum(graph.node_weight(f) for f in functions)
        parts.append((computation, call_graph.local_anchor_traffic(functions)))
        for function in functions:
            membership[function] = index
    inter_comm = {}
    for u, v, weight in graph.edges():
        pu = membership.get(u)
        pv = membership.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        key = (min(pu, pv), max(pu, pv))
        inter_comm[key] = inter_comm.get(key, 0.0) + weight
    pinned = sum(graph.node_weight(f) for f in call_graph.unoffloadable_functions())
    return parts, list(inter_comm.items()), pinned


@st.composite
def sliced_call_graph(draw):
    """A random call graph (several pinned functions, random flows) and a
    random slicing of its offloadable functions, empty slices included."""
    n = draw(st.integers(2, 14))
    weights = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
    flows = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)
    names = [f"f{i}" for i in draw(st.permutations(range(n)))]
    pinned = draw(st.sets(st.sampled_from(names), max_size=n - 1))
    fcg = FunctionCallGraph("prop")
    for name in names:
        fcg.add_function(name, computation=draw(weights), offloadable=name not in pinned)
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    # Repeated pairs accumulate, as repeated call sites do.
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)):
        if draw(st.booleans()):
            u, v = v, u
        fcg.add_data_flow(u, v, draw(flows))
    offloadable = fcg.offloadable_functions()
    n_slices = draw(st.integers(1, len(offloadable) + 1))
    slices = [set() for _ in range(n_slices)]
    for name in offloadable:
        slices[draw(st.integers(0, n_slices - 1))].add(name)
    return fcg, slices


@given(sliced_call_graph())
@settings(max_examples=150, deadline=None)
def test_partition_build_matches_reference(case):
    """The one-pass build reproduces the per-part build exactly: part
    weights, anchor traffic, inter-part traffic (keys in the same
    insertion order) and the pinned computation."""
    fcg, slices = case
    app = PartitionedApplication("u1", fcg, slices)
    parts, inter_comm, pinned = _reference_partition(fcg, slices)
    assert [(p.computation, p.anchor_traffic) for p in app.parts] == parts
    assert list(app.inter_comm.items()) == inter_comm
    assert app.pinned_computation == pinned


@st.composite
def planned_systems(draw):
    """A 2-6 user system over 1-3 distinct synthesized apps, with random
    device, server and (optionally) shared-channel parameters."""
    n_users = draw(st.integers(2, 6))
    pool = [
        synthesize_application(
            f"app{k}",
            n_functions=draw(st.integers(8, 24)),
            seed=draw(st.integers(0, 10_000)),
            coupling=draw(st.sampled_from(["loose", "tight"])),
        )
        for k in range(draw(st.integers(1, 3)))
    ]
    profile = DeviceProfile(
        compute_capacity=draw(st.floats(5.0, 200.0)),
        power_compute=draw(st.floats(0.1, 2.0)),
        power_transmit=draw(st.floats(0.5, 10.0)),
        bandwidth=draw(st.floats(5.0, 200.0)),
    )
    users = [
        UserContext(MobileDevice(f"u{i}", profile=profile), pool[i % len(pool)])
        for i in range(n_users)
    ]
    channel = (
        SharedChannel(capacity=draw(st.floats(5.0, 400.0))) if draw(st.booleans()) else None
    )
    system = MECSystem(
        EdgeServer(total_capacity=draw(st.floats(20.0, 2000.0))),
        users,
        allocation=draw(st.sampled_from(POLICIES)),
        channel=channel,
    )
    return system, {user.user_id: user.call_graph for user in users}


@given(planned_systems())
@settings(max_examples=100, deadline=None)
def test_plan_system_never_worse_than_its_initial_placement(planned):
    """Algorithm 2 only accepts improving moves (and, with a shared
    channel, keeps the best contention-consistent round), so the planned
    E + T never exceeds that of the placement the greedy starts from."""
    system, graphs = planned
    planner = make_planner("spectral")
    result = planner.plan_system(system, graphs)
    apps = {
        uid: PartitionedApplication(uid, graphs[uid], plan.parts)
        for uid, plan in result.user_plans.items()
    }
    start = initial_placement(
        apps,
        {uid: plan.bisections for uid, plan in result.user_plans.items()},
        mode=planner.config.initial_placement_mode,
    )
    start_value = system.evaluate_placement(apps, start).combined()
    assert result.consumption.combined() <= start_value + 1e-9 * max(1.0, abs(start_value))


@st.composite
def renamed_apps(draw):
    """One or two NETGEN apps, each parsed twice from the same payload:
    once as generated and once with every function renamed.  The two
    graphs are built by the same calls in the same order; only the names
    differ, and the renaming scrambles their sort order.  Returns the
    original graphs, the renamed graphs and each app's name mapping."""
    originals, renamed, mappings = [], [], []
    for k in range(draw(st.integers(1, 2))):
        n_nodes = draw(st.integers(12, 48))
        seed = draw(st.integers(0, 10_000))
        config = NetgenConfig(n_nodes=n_nodes, n_edges=2 * n_nodes, seed=seed)
        payload = graph_to_payload(
            call_graph_from_weighted_graph(
                netgen_graph(config), app_name=f"app{k}", unoffloadable_fraction=0.1, seed=seed
            )
        )
        prefix = draw(st.sampled_from(["", "fn_", "Z", "µ-"]))
        fresh = draw(st.permutations(range(n_nodes)))
        names = {
            entry["name"]: f"{prefix}{fresh[index]}.{k}"
            for index, entry in enumerate(payload["functions"])
        }
        mappings.append(names)
        originals.append(parse_graph_payload(payload))
        renamed.append(
            parse_graph_payload(
                {
                    **payload,
                    "functions": [
                        {**entry, "name": names[entry["name"]]} for entry in payload["functions"]
                    ],
                    "data_flows": [[names[u], names[v], w] for u, v, w in payload["data_flows"]],
                }
            )
        )
    return originals, renamed, mappings


@given(renamed_apps(), st.integers(2, 4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_plans_do_not_change_when_functions_are_renamed(apps, n_users, contended):
    """Renaming functions (same weights, same insertion order) renames the
    parts and changes nothing else: the bisections, Algorithm 2's moves
    and history, and the final placement are equal."""
    originals, renamed, mappings = apps
    planner = make_planner("spectral")
    for original, copy, mapping in zip(originals, renamed, mappings):
        plan, renamed_plan = planner.plan_user(original), planner.plan_user(copy)
        assert [frozenset(mapping[f] for f in part) for part in plan.parts] == renamed_plan.parts
        assert plan.bisections == renamed_plan.bisections

    profile = quick_profile()

    def planned(graphs):
        users = [
            UserContext(MobileDevice(f"u{i}", profile=profile.device), graphs[i % len(graphs)])
            for i in range(n_users)
        ]
        channel = (
            SharedChannel(capacity=0.1 * n_users * profile.device.bandwidth) if contended else None
        )
        system = MECSystem(
            EdgeServer(profile.server_capacity_per_user * n_users), users, channel=channel
        )
        return planner.plan_system(system, {user.user_id: user.call_graph for user in users})

    before, after = planned(originals), planned(renamed)
    assert after.greedy.moves == before.greedy.moves
    assert after.greedy.history == before.greedy.history
    assert after.greedy.remote_parts == before.greedy.remote_parts
