"""Tests for workload generation: netgen, applications, multi-user."""

import pytest

from repro.graphs.components import connected_components
from repro.graphs.validation import check_graph_invariants
from repro.workloads.applications import (
    call_graph_from_weighted_graph,
    synthesize_application,
)
from repro.workloads.multiuser import build_mec_system
from repro.workloads.netgen import NetgenConfig, netgen_graph, paper_network_configs
from repro.workloads.profiles import paper_profile, quick_profile


class TestNetgen:
    def test_exact_counts(self):
        config = NetgenConfig(n_nodes=120, n_edges=500, seed=1)
        g = netgen_graph(config)
        assert g.node_count == 120
        assert g.edge_count == 500
        check_graph_invariants(g)

    def test_deterministic_for_seed(self):
        config = NetgenConfig(n_nodes=80, n_edges=300, seed=7)
        a = netgen_graph(config)
        b = netgen_graph(config)
        assert a.edge_list() == b.edge_list()
        assert [a.node_weight(n) for n in a.nodes()] == [
            b.node_weight(n) for n in b.nodes()
        ]

    def test_different_seeds_differ(self):
        a = netgen_graph(NetgenConfig(n_nodes=80, n_edges=300, seed=1))
        b = netgen_graph(NetgenConfig(n_nodes=80, n_edges=300, seed=2))
        assert a.edge_list() != b.edge_list()

    def test_component_structure(self):
        config = NetgenConfig(n_nodes=240, n_edges=1100, seed=3)
        g = netgen_graph(config)
        components = connected_components(g)
        assert len(components) == config.component_count
        # Components are balanced to within one node.
        sizes = sorted(len(c) for c in components)
        assert sizes[-1] - sizes[0] <= 1

    def test_weight_ranges_respected(self):
        config = NetgenConfig(n_nodes=60, n_edges=250, seed=4)
        g = netgen_graph(config)
        lo, hi = config.node_weight_range
        for n in g.nodes():
            assert lo <= g.node_weight(n) <= hi
        weight_lo = min(config.inter_weight_range[0], config.intra_weight_range[0])
        weight_hi = max(config.inter_weight_range[1], config.intra_weight_range[1])
        for _, _, w in g.edges():
            assert weight_lo <= w <= weight_hi

    def test_bimodal_weights_present(self):
        """Both heavy (intra) and light (inter) edges must exist."""
        config = NetgenConfig(n_nodes=100, n_edges=480, seed=5)
        g = netgen_graph(config)
        weights = [w for _, _, w in g.edges()]
        assert any(w >= config.intra_weight_range[0] for w in weights)
        assert any(w <= config.inter_weight_range[1] for w in weights)

    def test_paper_configs_cover_table1(self):
        configs = paper_network_configs()
        assert [(c.n_nodes, c.n_edges) for c in configs] == [
            (250, 1214),
            (500, 2643),
            (1000, 4912),
            (2000, 9578),
            (5000, 40243),
        ]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            NetgenConfig(n_nodes=1, n_edges=0)
        with pytest.raises(ValueError):
            NetgenConfig(n_nodes=10, n_edges=5)  # below n-1
        with pytest.raises(ValueError):
            NetgenConfig(n_nodes=10, n_edges=100)  # above complete


class TestApplications:
    def test_synthesize_extracts_valid_graph(self):
        fcg = synthesize_application("demo", n_functions=30, seed=1)
        assert fcg.function_count == 30
        check_graph_invariants(fcg.graph)
        assert not fcg.info("main").offloadable  # UI-bound entry point

    def test_coupling_modes_differ(self):
        loose = synthesize_application("l", 40, seed=2, coupling="loose")
        tight = synthesize_application("t", 40, seed=2, coupling="tight")
        assert tight.total_communication() > loose.total_communication()

    def test_sensor_fraction_pins_functions(self):
        fcg = synthesize_application("s", 60, seed=3, sensor_fraction=0.5)
        pinned = len(fcg.unoffloadable_functions())
        assert pinned > 5  # main + a good share of sensor readers

    def test_zero_sensor_fraction(self):
        fcg = synthesize_application("s", 30, seed=4, sensor_fraction=0.0)
        assert fcg.unoffloadable_functions() == ["main"]

    def test_components_assigned(self):
        fcg = synthesize_application("c", 31, seed=5, n_components=3)
        assert len(fcg.components()) == 4  # ui + 3 components

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            synthesize_application("x", 1)
        with pytest.raises(ValueError):
            synthesize_application("x", 10, coupling="medium")
        with pytest.raises(ValueError):
            synthesize_application("x", 10, sensor_fraction=1.5)

    def test_wrap_weighted_graph(self):
        g = netgen_graph(NetgenConfig(n_nodes=50, n_edges=200, seed=6))
        fcg = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.1, seed=6)
        assert fcg.function_count == 50
        pinned = fcg.unoffloadable_functions()
        assert len(pinned) == 5
        assert fcg.total_computation() == pytest.approx(g.total_node_weight())
        assert fcg.total_communication() == pytest.approx(g.total_edge_weight())

    def test_wrap_pins_hub(self):
        g = netgen_graph(NetgenConfig(n_nodes=40, n_edges=150, seed=7))
        hub = max(g.nodes(), key=lambda n: (g.degree(n), g.weighted_degree(n)))
        fcg = call_graph_from_weighted_graph(g, unoffloadable_fraction=0.0, seed=7)
        # Even at fraction 0 the hub 'main' stays pinned.
        assert f"f{hub}" in fcg.unoffloadable_functions()


class TestMultiUser:
    def test_build_system_shape(self):
        profile = quick_profile()
        workload = build_mec_system(7, profile, graph_size=60)
        assert len(workload.system.users) == 7
        assert len(workload.call_graphs) == 7
        assert len(workload.distinct_graphs) == min(profile.distinct_graphs, 7)

    def test_round_robin_assignment(self):
        profile = quick_profile()
        workload = build_mec_system(6, profile, graph_size=60)
        pool = len(workload.distinct_graphs)
        for user_id, index in workload.user_graph_index.items():
            assert workload.call_graphs[user_id] is workload.distinct_graphs[index]
            assert index == int(user_id.replace("user", "")) % pool

    def test_server_capacity_scales_with_users(self):
        profile = quick_profile()
        w5 = build_mec_system(5, profile, graph_size=60)
        w10 = build_mec_system(10, profile, graph_size=60)
        assert w10.system.server.total_capacity == pytest.approx(
            2 * w5.system.server.total_capacity
        )

    def test_invalid_user_count(self):
        with pytest.raises(ValueError):
            build_mec_system(0, quick_profile())


class TestProfiles:
    def test_paper_profile_scales(self):
        profile = paper_profile()
        assert profile.graph_sizes[-1] == 5000
        assert profile.user_counts[-1] == 5000
        assert profile.multiuser_graph_size == 1000

    def test_quick_profile_smaller(self):
        quick = quick_profile()
        paper = paper_profile()
        assert max(quick.graph_sizes) < max(paper.graph_sizes)
        assert max(quick.user_counts) < max(paper.user_counts)

    def test_edges_for_table1_sizes(self):
        profile = paper_profile()
        assert profile.edges_for(250) == 1214
        assert profile.edges_for(5000) == 40243
        # Non-Table-I size uses the density.
        assert profile.edges_for(100) == int(100 * profile.edges_per_node)

    def test_profile_device_regime(self):
        """The tuned regime keeps wireless pricier than local compute."""
        device = quick_profile().device
        assert device.power_transmit > device.power_compute
