"""Golden and parity tests for the planning hot path.

Label propagation, the greedy candidate scan and the Fiedler solve each
have exactly one implementation.  The ``GOLDEN_*`` constants pin their
outputs — labels, propagation rounds, greedy moves and objective
histories, plan digests — to values recorded when alternate kernels
still existed and were asserted to agree with these paths, so any
behavioural drift shows up as a golden mismatch.  The remaining parity
tests pin the array-graph fast paths (CSR Laplacians, the O(1) greedy
move evaluator) to their reference semantics, and batch fleet admission
to a loop of single admissions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgraph.model import FunctionCallGraph
from repro.compression.labels import (
    AbsoluteThreshold,
    MeanScaledThreshold,
    QuantileThreshold,
)
from repro.compression.propagation import LabelPropagation
from repro.core import make_planner
from repro.fleet.fleet import EdgeFleet
from repro.fleet.routing import make_routing_policy
from repro.graphs import as_csr
from repro.graphs.generators import random_connected_graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.channel import SharedChannel
from repro.mec.devices import DeviceProfile, EdgeServer, MobileDevice
from repro.mec.greedy import PlacementEvaluator, generate_offloading_scheme
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.service import plan_digest
from repro.spectral.fiedler import FiedlerSolver
from repro.workloads.multiuser import build_mec_system
from repro.workloads.profiles import quick_profile

THRESHOLD_RULES = [
    MeanScaledThreshold(1.0),
    MeanScaledThreshold(0.5),
    QuantileThreshold(0.5),
    AbsoluteThreshold(3.0),
]


def _random_call_graph(seed: int, app_name: str = "parity") -> FunctionCallGraph:
    """Small random call graph with varied weights/components/flags."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    fcg = FunctionCallGraph(app_name)
    names = [f"f{i}" for i in range(n)]
    for name in names:
        fcg.add_function(
            name,
            computation=round(rng.uniform(1.0, 50.0), 3),
            component=rng.choice(["main", "aux"]),
            offloadable=rng.random() > 0.2,
        )
    for i in range(1, n):
        j = rng.randrange(i)
        fcg.add_data_flow(names[i], names[j], round(rng.uniform(0.5, 20.0), 3))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(names, 2)
        if not fcg.graph.has_edge(u, v):
            fcg.add_data_flow(u, v, round(rng.uniform(0.5, 20.0), 3))
    return fcg


# ----------------------------------------------------------------------
# Label propagation: golden labels
# ----------------------------------------------------------------------
GOLDEN_RANDOM_LABELS = {
    # (seed, rule index, nodes): (labels by node id, rounds, updates per round)
    (0, 0, 8): ([0, 0, 0, 0, 0, 0, 0, 1], 2, [8, 0]),
    (123, 2, 23): ([2, 0, 0, 0, 5, 4, 0, 0, 3, 5, 3, 2, 0, 2, 0, 6, 1, 0, 7, 0, 0, 4, 0], 2,
                   [23, 0]),
    (4242, 1, 41): ([0, 0, 2, 0, 0, 2, 3, 0, 2, 0, 2, 2, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0,
                     0, 0, 0, 2, 1, 3, 0, 2, 2, 0, 0, 0, 3, 0, 0, 0],
                    3, [41, 5, 0]),
    (10000, 3, 60): ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0,
                      0, 0, 0, 0, 0, 3, 4, 0, 5, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                      0, 4, 4, 0, 0, 0, 5, 0, 0, 0],
                     5, [60, 4, 2, 1, 0]),
}

GOLDEN_DISCONNECTED_LABELS = [
    # seed: (labels by node id, rounds, updates per round)
    ([3, 5, 7, 5, 6, 4, 5, 6, 5, 4, 0, 2, 0, 1, 1, 0, 0], 2, [17, 0]),
    ([0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 3, 3, 3, 3, 5, 3, 3], 3, [17, 2, 0]),
    ([0, 0, 2, 3, 0, 5, 0, 0, 0, 4, 6, 9, 8, 6, 6, 6, 6], 3, [17, 2, 0]),
    ([0, 0, 1, 2, 2, 2, 0, 2, 4, 2, 5, 7, 6, 8, 6, 5, 5], 3, [17, 1, 0]),
    ([2, 4, 7, 7, 2, 5, 7, 2, 5, 7, 0, 1, 0, 0, 0, 0, 0], 3, [17, 3, 0]),
    ([1, 1, 2, 3, 0, 0, 4, 0, 4, 2, 5, 5, 5, 6, 5, 5, 5], 2, [17, 0]),
]



def _disconnected_graph(seed: int) -> WeightedGraph:
    """Two random components, the second relabelled to start at node 100."""
    graph = WeightedGraph()
    for component, offset in (
        (random_connected_graph(10, 14, seed=seed), 0),
        (random_connected_graph(7, 9, seed=seed + 50), 100),
    ):
        for node in component.node_list():
            graph.add_node(node + offset, weight=component.node_weight(node))
        for u, v, weight in component.edges():
            graph.add_edge(u + offset, v + offset, weight)
    return graph


def _summary(graph: WeightedGraph, report) -> tuple[list[int], int, list[int]]:
    return (
        [report.labels[node] for node in sorted(graph.node_list())],
        report.rounds,
        report.updates_per_round,
    )


class TestLabelPropagationGolden:
    @pytest.mark.parametrize(
        "case", list(GOLDEN_RANDOM_LABELS), ids=lambda c: "seed{}-bfs-rule{}-n{}".format(*c)
    )
    def test_random_graph_labels_match_golden(self, case):
        seed, rule_index, n_nodes = case
        n_edges = min(2 * n_nodes, n_nodes * (n_nodes - 1) // 2)
        graph = random_connected_graph(n_nodes, n_edges, seed=seed)
        propagation = LabelPropagation(THRESHOLD_RULES[rule_index])
        assert _summary(graph, propagation.run(graph)) == GOLDEN_RANDOM_LABELS[case]

    @pytest.mark.parametrize("seed", range(len(GOLDEN_DISCONNECTED_LABELS)))
    def test_disconnected_graph_labels_match_golden(self, seed):
        graph = _disconnected_graph(seed)
        report = LabelPropagation(MeanScaledThreshold(1.0)).run(graph)
        assert _summary(graph, report) == GOLDEN_DISCONNECTED_LABELS[seed]


# ----------------------------------------------------------------------
# Fiedler: dict-graph vs CSR-graph input, entry()
# ----------------------------------------------------------------------
class TestFiedlerParity:
    def test_dense_solve_bit_identical_for_csr_input(self):
        for seed in range(4):
            graph = random_connected_graph(40, 80, seed=seed)
            solver = FiedlerSolver(method="dense")
            from_dict = solver.solve(graph)
            from_csr = solver.solve(as_csr(graph))
            assert from_dict.order == from_csr.order
            assert from_dict.value == from_csr.value
            assert np.array_equal(from_dict.vector, from_csr.vector)

    def test_sparse_sign_pattern_matches_for_csr_input(self):
        graph = random_connected_graph(80, 200, seed=2)
        solver = FiedlerSolver(method="sparse")
        from_dict = solver.solve(graph)
        from_csr = solver.solve(as_csr(graph))
        assert abs(from_dict.value - from_csr.value) <= 1e-9 * max(1.0, abs(from_dict.value))
        # The Fiedler bipartition (sign pattern, up to a global flip) is
        # what the cut consumes; it must not depend on the input layout.
        signs_dict = np.sign(from_dict.vector)
        signs_csr = np.sign(from_csr.vector)
        assert np.array_equal(signs_dict, signs_csr) or np.array_equal(signs_dict, -signs_csr)

    def test_entry_matches_order_position(self):
        graph = random_connected_graph(30, 60, seed=5)
        result = FiedlerSolver(method="dense").solve(graph)
        for node in result.order:
            assert result.entry(node) == float(result.vector[result.order.index(node)])


# ----------------------------------------------------------------------
# Greedy: O(1) incremental evaluator vs from-scratch dict aggregates
# ----------------------------------------------------------------------
def grid_partitioned_app(seed: int, user_id: str = "u1") -> PartitionedApplication:
    """A random call graph pre-sliced into parts, with grid-valued
    weights (multiples of 0.5) so equal objectives are exactly equal."""
    rng = random.Random(seed)
    grid = lambda: rng.randint(1, 60) * 0.5
    n_parts = rng.randint(2, 5)
    fcg = FunctionCallGraph("parity")
    fcg.add_function("pin", computation=grid(), offloadable=False)
    part_sets: list[set[str]] = []
    fn_index = 0
    for _ in range(n_parts):
        members: set[str] = set()
        for _ in range(rng.randint(1, 3)):
            name = f"f{fn_index}"
            fn_index += 1
            fcg.add_function(name, computation=grid())
            members.add(name)
        part_sets.append(members)
    for p, members in enumerate(part_sets):
        first = sorted(members)[0]
        if rng.random() < 0.5:
            fcg.add_data_flow("pin", first, grid())
        if p > 0:
            fcg.add_data_flow(sorted(part_sets[p - 1])[0], first, grid())
    return PartitionedApplication(user_id, fcg, part_sets)


class TestGreedyEvaluatorParity:
    @given(app=st.integers(0, 2**32 - 1).map(grid_partitioned_app), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_incremental_moves_match_scratch_rebuild(self, app, seed):
        device = MobileDevice(
            "u1",
            profile=DeviceProfile(
                compute_capacity=15.0, power_compute=1.0, power_transmit=5.0, bandwidth=80.0
            ),
        )
        system = MECSystem(EdgeServer(total_capacity=200.0), [UserContext(device, app.call_graph)])
        weights = ObjectiveWeights()
        apps = {"u1": app}
        all_ids = {part.part_id for part in app.parts}
        evaluator = PlacementEvaluator(system, apps, {"u1": set(all_ids)}, weights)

        def scratch(remote: dict[str, set[int]]) -> float:
            # A fresh evaluator derives its aggregates from the app's
            # dict-walking local/remote/cut-weight methods — the original
            # per-candidate computation the array path replaced.
            return PlacementEvaluator(system, apps, remote, weights).combined()

        rng = random.Random(seed)
        while evaluator.remote["u1"]:
            for user_id, part_id in evaluator.candidates():
                moved = {u: set(parts) for u, parts in evaluator.remote.items()}
                moved[user_id].discard(part_id)
                predicted = evaluator.evaluate_move(user_id, part_id)
                expected = scratch(moved)
                assert abs(predicted - expected) <= 1e-9 * max(1.0, abs(expected))
            evaluator.apply_move("u1", rng.choice(sorted(evaluator.remote["u1"])))
            expected = scratch(evaluator.remote)
            assert abs(evaluator.combined() - expected) <= 1e-9 * max(1.0, abs(expected))


# ----------------------------------------------------------------------
# Greedy and plan_system: golden moves, histories and plan digests
# ----------------------------------------------------------------------
GOLDEN_GREEDY = {
    # (seed, exhaustive): (moves, history, final remote part ids per user)
    (0, False): ([], [33.18333333333334], {"u0": [0, 1, 2, 3, 4]}),
    (0, True): ([], [33.18333333333334], {"u0": [0, 1, 2, 3, 4]}),
    (1, False): ([("u0", 2), ("u1", 1), ("u0", 0)],
                 [46.86666666666667, 44.1, 43.575, 43.21666666666667], {"u0": [1], "u1": [0, 2]}),
    (1, True): ([("u0", 2), ("u0", 1), ("u0", 0), ("u1", 1)],
                [46.86666666666667, 44.1, 38.375, 35.46666666666667, 34.94166666666667],
                {"u0": [], "u1": [0, 2]}),
    (2, False): ([], [33.00833333333333], {"u0": [0, 1], "u1": [0, 1], "u2": [0, 1, 2, 3, 4]}),
    (2, True): ([], [33.00833333333333], {"u0": [0, 1], "u1": [0, 1], "u2": [0, 1, 2, 3, 4]}),
    (3, False): ([], [21.466666666666665], {"u0": [0, 1, 2, 3]}),
    (3, True): ([], [21.466666666666665], {"u0": [0, 1, 2, 3]}),
    (4, False): ([("u0", 3), ("u0", 2)], [45.64999999999999, 44.94999999999999, 44.708333333333336],
                 {"u0": [0, 1], "u1": [0, 1, 2, 3, 4]}),
    (4, True): ([("u0", 3), ("u0", 2), ("u0", 1), ("u0", 0)],
                [45.64999999999999, 44.94999999999999, 44.708333333333336, 43.71666666666666,
                 37.85833333333333],
                {"u0": [], "u1": [0, 1, 2, 3, 4]}),
    (5, False): ([("u0", 0), ("u0", 3), ("u0", 4), ("u0", 1), ("u0", 2)],
                 [70.58888888888889, 67.47222222222223, 64.82222222222222, 61.60555555555555,
                  60.16388888888889, 57.92222222222223],
                 {"u0": [], "u1": [0, 1, 2, 3], "u2": [0, 1, 2, 3]}),
    (5, True): ([("u0", 0), ("u0", 3), ("u0", 4), ("u0", 2), ("u0", 1)],
                [70.58888888888889, 67.47222222222223, 64.82222222222222, 61.60555555555555,
                 60.113888888888894, 57.92222222222223],
                {"u0": [], "u1": [0, 1, 2, 3], "u2": [0, 1, 2, 3]}),
    (6, False): ([("u0", 0), ("u0", 1), ("u0", 3), ("u0", 2)],
                 [25.591666666666665, 22.94166666666667, 18.625, 18.4, 15.199999999999996], {"u0": []}),
    (6, True): ([("u0", 0), ("u0", 1), ("u0", 2), ("u0", 3)],
                [25.591666666666665, 22.94166666666667, 18.625, 16.625, 15.2], {"u0": []}),
    (7, False): ([("u0", 0)], [45.525, 43.84166666666666], {"u0": [1, 2], "u1": [0, 1, 2, 3]}),
    (7, True): ([("u0", 0), ("u0", 1), ("u0", 2)],
                [45.525, 43.84166666666666, 43.34166666666667, 35.975], {"u0": [], "u1": [0, 1, 2, 3]}),
}

GOLDEN_FULL_PLANS = {
    "digests": {"user00000": "9bb4d4535385a5b16d7cc67a3549f05a9c26bd24acf5f005b587424677b3037a",
                "user00001": "7969f25a14e692d46456ddb6cd68c1eb78ae3486ff208587c8ecc1ec42a9e806",
                "user00002": "5a3b0935afb619dd897625c62956593a45fd9f7ef6e490f7185dd2b1c5eee711",
                "user00003": "9bb4d4535385a5b16d7cc67a3549f05a9c26bd24acf5f005b587424677b3037a",
                "user00004": "7969f25a14e692d46456ddb6cd68c1eb78ae3486ff208587c8ecc1ec42a9e806",
                "user00005": "5a3b0935afb619dd897625c62956593a45fd9f7ef6e490f7185dd2b1c5eee711",
                "user00006": "9bb4d4535385a5b16d7cc67a3549f05a9c26bd24acf5f005b587424677b3037a",
                "user00007": "7969f25a14e692d46456ddb6cd68c1eb78ae3486ff208587c8ecc1ec42a9e806"},
    "moves": [("user00007", 0), ("user00004", 0), ("user00001", 0), ("user00006", 0), ("user00003", 0),
              ("user00000", 0), ("user00002", 0), ("user00005", 0)],
    "history": [107.08191837377825, 105.74620578693509, 104.42283856239771, 103.11181670016613,
                102.60264035609318, 102.10388839552672, 101.61556081846673, 101.59959926693367,
                101.59406209890709],
    "energy": 50.79703104945355,
    "time": 50.79703104945355,
}

GOLDEN_CHANNEL_PLANS = {
    "digests": {"user00000": "9bddb83f3c1d7f15ea518199227235617a606e04f9197c13ae1abe85d506eb27",
                "user00001": "b80d5b140113fff0d2e65759622ba93e25ee947a05bfac6de6fafba60edc68e9",
                "user00002": "944be30b63f37fbfa90078fa40551c7ffc5b5c0bbf9afcc814e1d3fa59dd4301",
                "user00003": "9bddb83f3c1d7f15ea518199227235617a606e04f9197c13ae1abe85d506eb27",
                "user00004": "b80d5b140113fff0d2e65759622ba93e25ee947a05bfac6de6fafba60edc68e9",
                "user00005": "944be30b63f37fbfa90078fa40551c7ffc5b5c0bbf9afcc814e1d3fa59dd4301",
                "user00006": "9bddb83f3c1d7f15ea518199227235617a606e04f9197c13ae1abe85d506eb27",
                "user00007": "b80d5b140113fff0d2e65759622ba93e25ee947a05bfac6de6fafba60edc68e9"},
    "moves": [("user00002", 0), ("user00005", 0), ("user00006", 0), ("user00003", 0), ("user00000", 0)],
    "history": [263.996195815305, 261.9688835773, 260.01046601389277, 258.4255049305272,
                256.85384679131266, 255.29549159624904],
    "remote": {"user00001": [1], "user00004": [1], "user00007": [1]},
    "rounds": 2,
    "rates": {f"user{k:05d}": 56.0 for k in range(8)},
    "energy": 129.3258089615453,
    "time": 126.72129538289843,
}



def _greedy_case(seed: int):
    """1-3 users on a tight server, every part starting remote."""
    apps = {f"u{k}": grid_partitioned_app(100 * seed + k, f"u{k}") for k in range(1 + seed % 3)}
    users = [
        UserContext(
            MobileDevice(
                user_id,
                profile=DeviceProfile(
                    compute_capacity=15.0,
                    power_compute=1.0,
                    power_transmit=5.0,
                    bandwidth=40.0 + 20.0 * k,
                ),
            ),
            app.call_graph,
        )
        for k, (user_id, app) in enumerate(apps.items())
    ]
    system = MECSystem(EdgeServer(total_capacity=6.0 * len(users)), users)
    bisections = {
        user_id: [({part.part_id for part in app.parts}, set())] for user_id, app in apps.items()
    }
    return system, apps, bisections


def _plan_system_outcome(n_users: int, graph_size: int, channel=None):
    profile = dataclasses.replace(
        quick_profile(), distinct_graphs=3, multiuser_graph_size=graph_size, seed=11
    )
    workload = build_mec_system(n_users, profile, graph_size=graph_size, channel=channel)
    return make_planner("spectral").plan_system(workload.system, workload.call_graphs)


def _assert_plans_match(result, golden) -> None:
    # Digests, moves and placements are exact.  The summed objective is
    # only pinned to 1e-12: the goldens were recorded when per-user
    # aggregates were summed in string-set order, which follows the
    # interpreter's hash seed, so their last bits are one seed's.  The
    # sums are now exact (math.fsum) and seed-independent, which
    # test_summed_objective_independent_of_hash_seed pins bit for bit.
    assert {user: plan_digest(plan) for user, plan in result.user_plans.items()} == golden["digests"]
    assert result.greedy.moves == golden["moves"]
    assert result.greedy.history == pytest.approx(golden["history"], rel=1e-12)
    assert result.consumption.energy == pytest.approx(golden["energy"], rel=1e-12)
    assert result.consumption.time == pytest.approx(golden["time"], rel=1e-12)


class TestGreedyGolden:
    @pytest.mark.parametrize(
        "case",
        list(GOLDEN_GREEDY),
        ids=lambda c: f"seed{c[0]}-{'exhaustive' if c[1] else 'lazy'}",
    )
    def test_scheme_matches_golden(self, case):
        seed, exhaustive = case
        system, apps, bisections = _greedy_case(seed)
        result = generate_offloading_scheme(system, apps, bisections, exhaustive=exhaustive)
        moves, history, remote = GOLDEN_GREEDY[case]
        assert result.moves == moves
        # Exact: the greedy's argmin compares objectives for float equality.
        assert result.history == history
        assert {user: sorted(parts) for user, parts in result.remote_parts.items()} == remote

    def test_full_plans_match_golden(self):
        _assert_plans_match(_plan_system_outcome(8, 24), GOLDEN_FULL_PLANS)

    def test_shared_channel_plans_match_golden(self):
        result = _plan_system_outcome(8, 60, channel=SharedChannel(capacity=168.0))
        _assert_plans_match(result, GOLDEN_CHANNEL_PLANS)
        golden_remote = GOLDEN_CHANNEL_PLANS["remote"]
        assert {user: sorted(parts) for user, parts in result.greedy.remote_parts.items()} == {
            user: golden_remote.get(user, []) for user in result.greedy.remote_parts
        }
        assert result.greedy.contention_rounds == GOLDEN_CHANNEL_PLANS["rounds"]
        assert result.greedy.effective_rates == GOLDEN_CHANNEL_PLANS["rates"]

    def test_summed_objective_independent_of_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        pythonpath = os.pathsep.join([str(root / "src"), str(root)])
        outcomes = []
        for seed in ("0", "5"):
            completed = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath},
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            outcomes.append(json.loads(completed.stdout.splitlines()[-1]))
        assert outcomes[0] == outcomes[1]


# Plans the shared-channel golden system and prints its summed E, T and
# greedy history as float.hex, so two interpreters compare bit for bit.
_HASH_SEED_PROBE = """
import json
from repro.mec.channel import SharedChannel
from tests.test_hotpath_parity import _plan_system_outcome
result = _plan_system_outcome(8, 60, channel=SharedChannel(capacity=168.0))
print(json.dumps({
    "energy": result.consumption.energy.hex(),
    "time": result.consumption.time.hex(),
    "history": [value.hex() for value in result.greedy.history],
}))
"""


# ----------------------------------------------------------------------
# Fleet: batch admission vs sequential admits
# ----------------------------------------------------------------------
class TestBatchAdmissionParity:
    def test_admit_many_matches_sequential_admits(self):
        graphs = [_random_call_graph(seed, app_name=f"app{seed}") for seed in range(4)]
        arrivals = [(MobileDevice(f"u{i}"), graphs[i % len(graphs)]) for i in range(12)]

        def build_fleet() -> EdgeFleet:
            return EdgeFleet(
                3,
                100.0,
                strategy="spectral",
                routing=make_routing_policy("round-robin", seed=0),
            )

        sequential_fleet = build_fleet()
        sequential = [sequential_fleet.admit(device, graph) for device, graph in arrivals]
        batch_fleet = build_fleet()
        batched = batch_fleet.admit_many(arrivals)

        outcome = lambda a: (a.user_id, a.server_id, a.cache_hit, a.degraded)
        assert [outcome(a) for a in sequential] == [outcome(a) for a in batched]
        assert (
            sequential_fleet.total_consumption().combined()
            == batch_fleet.total_consumption().combined()
        )
