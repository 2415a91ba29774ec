"""Seeded inputs: NETGEN applications, HTTP payloads and plan-quality probes.

Everything the program receives is built here from the workload seed
before any timing starts.  NETGEN costs ~60 ms per 250-function app, so
large streams of distinct apps are *variants* of a few NETGEN bases:
every computation and data-flow weight is rescaled by its own random
factor, which changes the coupling threshold, the compressed graph and
the cut — and the content fingerprint, so no two variants share a plan.
"""

from __future__ import annotations

import json
import random
from typing import Any

from repro.callgraph.model import FunctionCallGraph
from repro.core.results import UserPlan
from repro.mec.devices import EdgeServer, MobileDevice
from repro.mec.energy import local_compute_time, local_energy
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem, UserContext
from repro.service.http import graph_to_payload, parse_graph_payload
from repro.workloads.applications import call_graph_from_weighted_graph
from repro.workloads.netgen import NetgenConfig, netgen_graph
from repro.workloads.profiles import quick_profile

PROFILE = quick_profile()
"""Device and server parameters of every workload (the experiments' own)."""

JITTER = (0.75, 1.25)


def netgen_app(n_nodes: int, seed: int, name: str) -> FunctionCallGraph:
    """One NETGEN application, built the way the experiments build them."""
    config = NetgenConfig(n_nodes=n_nodes, n_edges=PROFILE.edges_for(n_nodes), seed=seed)
    return call_graph_from_weighted_graph(
        netgen_graph(config),
        app_name=name,
        unoffloadable_fraction=PROFILE.unoffloadable_fraction,
        seed=seed,
    )


def variant_payload(base: dict[str, Any], name: str, rng: random.Random) -> dict[str, Any]:
    """*base* (an HTTP payload) with every weight rescaled independently."""
    return {
        "app_name": name,
        "functions": [
            {**entry, "computation": entry["computation"] * rng.uniform(*JITTER)}
            for entry in base["functions"]
        ],
        "data_flows": [[u, v, w * rng.uniform(*JITTER)] for u, v, w in base["data_flows"]],
    }


def variant_app(base: dict[str, Any], name: str, rng: random.Random) -> FunctionCallGraph:
    """A :func:`variant_payload` of *base*, as a call graph."""
    return parse_graph_payload(variant_payload(base, name, rng))


def netgen_payloads(n_nodes: int, count: int, seed: int, prefix: str) -> list[dict[str, Any]]:
    """*count* distinct NETGEN applications as HTTP payloads."""
    return [
        graph_to_payload(netgen_app(n_nodes, seed * 1000 + k, f"{prefix}-{k}"))
        for k in range(count)
    ]


def encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def device(user_id: str) -> MobileDevice:
    return MobileDevice(device_id=user_id, profile=PROFILE.device)


def all_local_cost(graphs: list[FunctionCallGraph]) -> float:
    """Summed ``E + T`` of running every graph fully on its device."""
    total = 0.0
    for graph in graphs:
        seconds = local_compute_time(graph.total_computation(), PROFILE.device.compute_capacity)
        total += seconds + local_energy(seconds, PROFILE.device.power_compute)
    return total


def single_user_cost(graph: FunctionCallGraph, plan: UserPlan) -> float:
    """``E + T`` of *plan* placed by Algorithm 2 for one user on one server.

    The plan-quality probe for the HTTP workloads: the returned parts
    and bisections are placed on a reference one-user system, so a
    faster planner that returns worse cuts shows as a higher cost.
    """
    user = UserContext(device("probe"), graph)
    system = MECSystem(EdgeServer(PROFILE.server_capacity_per_user), [user])
    apps = {"probe": PartitionedApplication("probe", graph, plan.parts)}
    greedy = generate_offloading_scheme(system, apps, {"probe": plan.bisections})
    return greedy.consumption.combined()
