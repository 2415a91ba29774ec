"""Span interposition: the traced run's view into the program's layers.

The program has no spans of its own.  :func:`interposed` replaces, for
the length of a ``with`` block, the names through which the planner, the
online planner and the fleet reach each layer (module globals as the
calling module looks them up, methods on their classes), with wrappers
that record one span per call.  The traced run then calls the real
``plan_user``, ``plan_system`` and ``EdgeFleet.admit``: the spans time
the program, not a copy of it.

The HTTP server runs in a subprocess, so its request decoding and
response encoding are replayed in-process (:func:`parse`, :func:`encode`).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import repro.core.baselines as baselines_module
import repro.core.planner as planner_module
import repro.fleet.fleet as fleet_module
import repro.mec.online as online_module
import repro.service.fingerprint as fingerprint_module
from repro.callgraph.model import FunctionCallGraph
from repro.compression.compressor import GraphCompressor
from repro.compression.merge import CompressedGraph
from repro.core.planner import OffloadingPlanner
from repro.core.results import UserPlan
from repro.graphs.weighted_graph import WeightedGraph
from repro.service.http import parse_graph_payload, response_to_dict
from repro.service.server import PlanResponse

from harness import Tracer


class OpCursor:
    """The op id spans recorded by interposed calls are attributed to."""

    def __init__(self) -> None:
        self.op = 0


@dataclass
class Recorded:
    """Results of interposed calls that the per-layer counts are read from."""

    compressions: list[tuple[int, Any]] = field(default_factory=list)
    """(input node count, ``CompressionResult``) per ``compress`` call."""

    greedy: list[Any] = field(default_factory=list)
    """``GreedyResult`` per Algorithm 2 run."""

    def layer_stats(self, tracer: Tracer) -> dict[str, float]:
        """Compression rounds and node ratio, cuts per plan, greedy moves and rounds."""
        stats: dict[str, float] = {}
        if self.compressions:
            stats["compression.rounds"] = _mean(r.rounds_total for _, r in self.compressions)
            stats["compression.node_ratio"] = _mean(
                r.compressed.graph.node_count / n for n, r in self.compressions
            )
        plans = len(tracer.named("planner.plan_user"))
        if plans:
            stats["spectral.cuts"] = len(tracer.named("spectral.cut")) / plans
        if self.greedy:
            stats["greedy.moves"] = _mean(len(g.moves) for g in self.greedy)
            stats["greedy.contention_rounds"] = _mean(g.contention_rounds for g in self.greedy)
        return stats


def _mean(values: Any) -> float:
    values = list(values)
    return sum(values) / len(values)


# (owner, attribute, span name) of every interposed call.
INTERPOSED = (
    (OffloadingPlanner, "plan_user", "planner.plan_user"),
    (OffloadingPlanner, "plan_system", "planner.plan_system"),
    (FunctionCallGraph, "offloadable_subgraph", "callgraph.offloadable"),
    (GraphCompressor, "compress", "compression.compress"),
    (CompressedGraph, "expand", "compression.expand"),
    (WeightedGraph, "subgraph", "graphs.subgraph"),
    (planner_module, "connected_components", "graphs.components"),
    (baselines_module, "spectral_bisect", "spectral.cut"),
    (planner_module, "PartitionedApplication", "scheme.partition"),
    (online_module, "PartitionedApplication", "scheme.partition"),
    (planner_module, "generate_offloading_scheme", "greedy"),
    (online_module, "generate_offloading_scheme", "greedy"),
    (fingerprint_module, "request_fingerprint", "fingerprint"),
    (fleet_module, "request_fingerprint", "fingerprint"),
    (fleet_module, "modelled_user_cost", "fleet.modelled"),
    (fleet_module, "hypothetical_consumption", "fleet.modelled"),
)


@contextmanager
def interposed(tracer: Tracer, cursor: OpCursor, recorded: Recorded) -> Iterator[None]:
    """Record a span around every call in :data:`INTERPOSED`; restore on exit."""

    def keep_compression(args: tuple[Any, ...], result: Any) -> None:
        recorded.compressions.append((args[1].node_count, result))

    def keep_greedy(args: tuple[Any, ...], result: Any) -> None:
        recorded.greedy.append(result)

    keepers: dict[str, Callable[[tuple[Any, ...], Any], None]] = {
        "compression.compress": keep_compression,
        "greedy": keep_greedy,
    }

    def wrap(name: str, fn: Any) -> Any:
        keep = keepers.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, cursor.op):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep(args, result)
            return result

        return traced

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in INTERPOSED]
    try:
        for (owner, attr, name), (_, _, original) in zip(INTERPOSED, saved):
            setattr(owner, attr, wrap(name, original))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def parse(tracer: Tracer, body: bytes, op: int) -> FunctionCallGraph:
    """The HTTP frontend's request decoding."""
    with tracer.span("http.parse", op):
        return parse_graph_payload(json.loads(body.decode("utf-8")))


def encode(tracer: Tracer, key: str, plan: UserPlan, op: int) -> bytes:
    """The HTTP frontend's response encoding."""
    with tracer.span("http.encode", op):
        response = PlanResponse(request_id=op, key=key, plan=plan)
        return json.dumps(response_to_dict(response)).encode()
