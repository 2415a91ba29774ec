"""Weighted undirected graph substrate.

This package implements the function-data-flow-graph substrate that every
other part of the library builds on: the paper (Section II) models a mobile
application as a weighted undirected graph whose node weights are amounts of
computation and whose edge weights are amounts of communication.
"""

from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.dot import clustering_to_dot, cut_to_dot, graph_to_dot
from repro.graphs.components import (
    component_subgraphs,
    connected_components,
    is_connected,
    largest_component,
)
from repro.graphs.generators import (
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    two_cluster_graph,
)
from repro.graphs.coarsening import (
    CoarseningLevel,
    coarsen_graph,
    coarsen_once,
    coarsening_as_compression,
    heavy_edge_matching,
)
from repro.graphs.io import (
    graph_from_dict,
    graph_from_edge_list,
    graph_to_dict,
    load_graph_json,
    save_graph_json,
)
from repro.graphs.laplacian import (
    adjacency_matrix,
    degree_vector,
    laplacian_matrix,
    normalized_laplacian_matrix,
    sparse_laplacian,
)
from repro.graphs.metrics import (
    WeightSummary,
    average_clustering,
    average_degree,
    clustering_coefficient,
    conductance,
    degree_histogram,
    density,
    edge_weight_summary,
    node_weight_summary,
    volume,
)
from repro.graphs.spanning import (
    SpanningForest,
    backbone_fraction,
    maximum_spanning_forest,
    minimum_spanning_forest,
)
from repro.graphs.random_models import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    watts_strogatz_graph,
)
from repro.graphs.paths import (
    dijkstra_distances,
    shortest_path,
    weighted_farthest_node,
)
from repro.graphs.traversal import bfs_order, bfs_tree, eccentricity, farthest_node
from repro.graphs.validation import check_graph_invariants
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "WeightedGraph",
    "CSRGraph",
    "as_csr",
    "connected_components",
    "component_subgraphs",
    "is_connected",
    "largest_component",
    "bfs_order",
    "bfs_tree",
    "eccentricity",
    "farthest_node",
    "adjacency_matrix",
    "degree_vector",
    "laplacian_matrix",
    "normalized_laplacian_matrix",
    "sparse_laplacian",
    "graph_to_dict",
    "graph_from_dict",
    "graph_from_edge_list",
    "save_graph_json",
    "load_graph_json",
    "check_graph_invariants",
    "random_connected_graph",
    "path_graph",
    "star_graph",
    "grid_graph",
    "two_cluster_graph",
    "coarsen_graph",
    "coarsen_once",
    "coarsening_as_compression",
    "heavy_edge_matching",
    "CoarseningLevel",
    "density",
    "average_degree",
    "degree_histogram",
    "WeightSummary",
    "edge_weight_summary",
    "node_weight_summary",
    "clustering_coefficient",
    "average_clustering",
    "volume",
    "conductance",
    "dijkstra_distances",
    "shortest_path",
    "weighted_farthest_node",
    "graph_to_dot",
    "cut_to_dot",
    "clustering_to_dot",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "maximum_spanning_forest",
    "minimum_spanning_forest",
    "backbone_fraction",
    "SpanningForest",
]
