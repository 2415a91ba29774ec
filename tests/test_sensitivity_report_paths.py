"""Tests for sensitivity sweeps, the markdown report, weighted paths,
scheme validation and simulation-report export."""

import pytest

from repro.experiments.report import generate_markdown_report
from repro.experiments.sensitivity import (
    SWEEPABLE,
    find_crossover,
    run_sensitivity_experiment,
)
from repro.graphs.generators import path_graph, random_connected_graph, two_cluster_graph
from repro.graphs.paths import (
    dijkstra_distances,
    shortest_path,
    unit_length,
    weighted_farthest_node,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.validation import validate_scheme
from repro.mec.scheme import OffloadingScheme
from repro.workloads.profiles import ExperimentProfile

TINY = ExperimentProfile(
    name="tiny", graph_sizes=(60,), user_counts=(2,), multiuser_graph_size=60
)


class TestSensitivity:
    def test_transmit_power_crossover(self):
        rows = run_sensitivity_experiment(
            "power_transmit",
            profile=TINY,
            graph_size=150,
            multipliers=(0.25, 1.0, 8.0, 32.0),
        )
        assert rows[0].offloaded_fraction >= rows[-1].offloaded_fraction
        assert rows[0].offloaded_fraction > 0.0  # cheap radio: shipping pays
        # At an absurd radio cost nothing ships.
        assert rows[-1].offloaded_fraction == 0.0
        assert find_crossover(rows) in (1.0, 8.0, 32.0)

    def test_bandwidth_improves_offloading(self):
        rows = run_sensitivity_experiment(
            "bandwidth", profile=TINY, graph_size=150, multipliers=(0.1, 1.0, 10.0)
        )
        assert rows[-1].offloaded_fraction >= rows[0].offloaded_fraction

    def test_all_parameters_runnable(self):
        for parameter in SWEEPABLE:
            rows = run_sensitivity_experiment(
                parameter, profile=TINY, multipliers=(1.0,)
            )
            assert len(rows) == 1
            assert rows[0].parameter == parameter

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            run_sensitivity_experiment("warp_power", profile=TINY)

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(ValueError):
            run_sensitivity_experiment(
                "bandwidth", profile=TINY, multipliers=(0.0,)
            )

    def test_no_crossover_reported_as_none(self):
        rows = run_sensitivity_experiment(
            "bandwidth", profile=TINY, multipliers=(1.0, 2.0)
        )
        if all(r.offloaded_fraction > 0 for r in rows):
            assert find_crossover(rows) is None


class TestReport:
    def test_markdown_structure(self):
        document = generate_markdown_report(
            TINY, include_timing=False, single_user_repetitions=1, multiuser_repetitions=1
        )
        assert document.startswith("# COPMECS reproduction report")
        assert "## Table I" in document
        assert "## Figures 3-5" in document
        assert "## Figures 6-8" in document
        assert "## Figure 9" not in document  # timing skipped
        # Markdown tables render with pipes.
        assert document.count("|---") >= 3

    def test_timing_included_when_asked(self):
        document = generate_markdown_report(
            TINY, include_timing=True, single_user_repetitions=1, multiuser_repetitions=1
        )
        assert "## Figure 9" in document
        assert "spectral-spark" in document


class TestWeightedPaths:
    def test_dijkstra_unit_metric_equals_hops(self):
        g = path_graph(5, edge_weight=3.0)
        distances = dijkstra_distances(g, 0, edge_length=unit_length)
        assert distances == {i: float(i) for i in range(5)}

    def test_inverse_weight_prefers_heavy_edges(self):
        # a -1000- b -1000- c  vs  a -1- c: through b is "closer".
        g = WeightedGraph()
        for n in "abc":
            g.add_node(n)
        g.add_edge("a", "b", weight=1000.0)
        g.add_edge("b", "c", weight=1000.0)
        g.add_edge("a", "c", weight=1.0)
        distances = dijkstra_distances(g, "a")
        assert distances["c"] == pytest.approx(2 / 1000.0)
        assert shortest_path(g, "a", "c") == ["a", "b", "c"]

    def test_weighted_farthest_is_loosest_coupling(self):
        g = two_cluster_graph(3, intra_weight=100.0, bridge_weight=0.1)
        # From inside the left cluster, the far side of the weak bridge
        # is the weighted-farthest region.
        farthest = weighted_farthest_node(g, 0)
        assert farthest >= 3

    def test_unreachable_target(self):
        g = WeightedGraph()
        g.add_node("a")
        g.add_node("b")
        with pytest.raises(ValueError, match="unreachable"):
            shortest_path(g, "a", "b")

    def test_missing_nodes_rejected(self):
        g = path_graph(3)
        with pytest.raises(KeyError):
            dijkstra_distances(g, 99)
        with pytest.raises(KeyError):
            shortest_path(g, 0, 99)

    def test_matches_networkx_dijkstra(self):
        networkx = pytest.importorskip("networkx")
        g = random_connected_graph(12, 24, seed=3)
        nxg = networkx.Graph()
        for u, v, w in g.edges():
            nxg.add_edge(u, v, length=1.0 / w)
        expected = networkx.single_source_dijkstra_path_length(nxg, 0, weight="length")
        ours = dijkstra_distances(g, 0)
        for node, distance in expected.items():
            assert ours[node] == pytest.approx(distance)

    def test_weighted_st_selection_mode(self):
        from repro.mincut.st_selection import select_source_sink

        g = two_cluster_graph(4, intra_weight=50.0, bridge_weight=0.5)
        source_h, sink_h = select_source_sink(g, metric="hops")
        source_w, sink_w = select_source_sink(g, metric="weighted")
        assert source_h == source_w  # source rule is shared
        # Weighted metric must send the sink across the weak bridge.
        same_side = (source_w < 4) == (sink_w < 4)
        assert not same_side
        with pytest.raises(ValueError, match="unknown metric"):
            select_source_sink(g, metric="psychic")


class TestSchemeValidation:
    def test_valid_scheme_passes(self, small_call_graph, single_user_system):
        system, graphs = single_user_system
        scheme = OffloadingScheme(remote_functions={"u1": {"f4", "f5"}})
        result = validate_scheme(system, graphs, scheme)
        assert result.ok
        result.raise_if_invalid()  # no-op

    def test_pinned_function_flagged(self, single_user_system):
        system, graphs = single_user_system
        scheme = OffloadingScheme(remote_functions={"u1": {"f1"}})
        result = validate_scheme(system, graphs, scheme)
        assert not result.ok
        assert any("pinned" in v for v in result.violations)
        with pytest.raises(ValueError, match="pinned"):
            result.raise_if_invalid()

    def test_unknown_function_and_user_flagged(self, single_user_system):
        system, graphs = single_user_system
        scheme = OffloadingScheme(
            remote_functions={"u1": {"ghost"}, "nobody": {"f2"}}
        )
        result = validate_scheme(system, graphs, scheme)
        assert any("unknown function" in v for v in result.violations)
        assert any("unknown user" in v for v in result.violations)

    def test_missing_call_graph_flagged(self, single_user_system):
        system, _ = single_user_system
        result = validate_scheme(system, {}, OffloadingScheme())
        assert any("no call graph" in v for v in result.violations)

    def test_planner_output_always_validates(self):
        from repro.core import make_planner
        from repro.mec.devices import EdgeServer, MobileDevice
        from repro.mec.system import MECSystem, UserContext
        from repro.workloads.applications import synthesize_application

        app = synthesize_application("v", n_functions=40, seed=17)
        system = MECSystem(
            EdgeServer(300.0), [UserContext(MobileDevice("u1"), app)]
        )
        for strategy in ("spectral", "maxflow", "kl", "multilevel-kl"):
            result = make_planner(strategy).plan_system(system, {"u1": app})
            assert validate_scheme(system, {"u1": app}, result.scheme).ok


class TestSimulationExport:
    def test_to_dict_roundtrips_through_json(self, single_user_system):
        import json

        from repro.core import make_planner
        from repro.mec.scheme import PartitionedApplication
        from repro.simulation import simulate_scheme

        system, graphs = single_user_system
        result = make_planner("spectral").plan_system(system, graphs)
        apps = {
            "u1": PartitionedApplication("u1", graphs["u1"], result.user_plans["u1"].parts)
        }
        report = simulate_scheme(system, apps, result.greedy.remote_parts)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["events_processed"] == report.events_processed
        assert payload["per_user"]["u1"]["completion"] == pytest.approx(
            report.timeline("u1").completion
        )
        assert "sojourn" in payload["per_user"]["u1"]
