"""Offloading schemes and the part-level view Algorithm 2 operates on.

After compression and per-sub-graph cutting, each application is a
collection of *parts* — groups of functions that will be placed on the
same side as a unit.  :class:`PartitionedApplication` precomputes every
quantity the greedy loop needs (part computation weights, part-to-part
communication, traffic to pinned-local functions) so that evaluating a
candidate placement costs O(parts^2) arithmetic rather than graph scans.
None of it depends on who runs the application or where its parts sit,
so one partition serves every user of the same graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Set as AbstractSet

from repro.callgraph.model import FunctionCallGraph


@dataclass(frozen=True)
class SchemePart:
    """One indivisible placement unit of an application."""

    part_id: int
    functions: frozenset[str]
    computation: float
    anchor_traffic: float
    """Communication between this part and the application's pinned-local
    functions; charged over the wireless link whenever the part is
    remote."""


class PartitionedApplication:
    """An application sliced into placement parts.

    ``inter_comm[(i, j)]`` (with ``i < j``) is the communication weight
    between parts ``i`` and ``j``; it crosses the wireless link exactly
    when the two parts sit on different sides.  Construction is one
    O(V + E) pass over the call graph, so callers that hold an instance
    (``plan_system``, the fleet's SLA check, admission and eviction
    replay) reuse it rather than rebuild it.

    Nothing here depends on the user or on a placement, so a partition
    may be shared by every user of one graph.  *user_id* names the user
    it is built for only in the errors a malformed slicing raises; the
    partition does not keep it.  The per-part tables Algorithm 2 reads
    on every candidate move are built once here, as plain lists indexed
    by ``part_id``:

    * ``computation[p]`` and ``anchor[p]`` — the part's
      :class:`SchemePart` weights;
    * ``adjacency[p]`` — ``(other part, weight)`` for every inter-part
      edge of ``p``, in ``inter_comm`` order;
    * ``w_total[p]`` — the sum of those weights, accumulated in the same
      order.
    """

    def __init__(
        self,
        user_id: str,
        call_graph: FunctionCallGraph,
        part_sets: Iterable[Iterable[str]],
    ) -> None:
        self.call_graph = call_graph
        graph = call_graph.graph

        cleaned = [frozenset(part) for part in part_sets if part]
        covered: set[str] = set()
        for part in cleaned:
            overlap = covered & part
            if overlap:
                raise ValueError(
                    f"{user_id!r}: parts overlap on functions {sorted(overlap)!r}"
                )
            covered |= part
        offloadable = set(call_graph.offloadable_functions())
        missing = offloadable - covered
        if missing:
            raise ValueError(
                f"{user_id!r}: offloadable functions not covered by parts: {sorted(missing)!r}"
            )
        extraneous = covered - offloadable
        if extraneous:
            raise ValueError(
                f"{user_id!r}: parts contain unoffloadable functions: {sorted(extraneous)!r}"
            )

        membership: dict[str, int] = {}
        for index, functions in enumerate(cleaned):
            for function in functions:
                membership[function] = index
        pinned = call_graph.unoffloadable_functions()
        pinned_set = set(pinned)

        # One walk over the edges collects both the part-to-part traffic
        # and each part's traffic to pinned functions (a pinned function
        # is never in a part, so every such edge is seen exactly once).
        anchor_flows: list[list[float]] = [[] for _ in cleaned]
        self.inter_comm: dict[tuple[int, int], float] = {}
        for u, v, weight in graph.edges():
            pu = membership.get(u)
            pv = membership.get(v)
            if pu is None or pv is None:
                if pu is not None and v in pinned_set:
                    anchor_flows[pu].append(weight)
                elif pv is not None and u in pinned_set:
                    anchor_flows[pv].append(weight)
                continue
            if pu == pv:
                continue
            key = (pu, pv) if pu < pv else (pv, pu)
            self.inter_comm[key] = self.inter_comm.get(key, 0.0) + weight

        # fsum is exact, so neither sum depends on the set's iteration
        # order (which follows the interpreter's hash seed).
        self.parts: list[SchemePart] = [
            SchemePart(
                part_id=index,
                functions=functions,
                computation=math.fsum(graph.node_weight(f) for f in functions),
                anchor_traffic=math.fsum(anchor_flows[index]),
            )
            for index, functions in enumerate(cleaned)
        ]
        self.pinned_computation = sum(graph.node_weight(f) for f in pinned)

        self.computation: list[float] = [part.computation for part in self.parts]
        self.anchor: list[float] = [part.anchor_traffic for part in self.parts]
        self.adjacency: list[list[tuple[int, float]]] = [[] for _ in self.parts]
        self.w_total: list[float] = [0.0] * len(self.parts)
        for (i, j), weight in self.inter_comm.items():
            self.adjacency[i].append((j, weight))
            self.adjacency[j].append((i, weight))
            self.w_total[i] += weight
            self.w_total[j] += weight

    @property
    def part_count(self) -> int:
        """Number of placement parts."""
        return len(self.parts)

    def remote_weight(self, remote_parts: AbstractSet[int]) -> float:
        """Total computation weight of the remote-placed parts."""
        return sum(c for p, c in enumerate(self.computation) if p in remote_parts)

    def local_weight(self, remote_parts: AbstractSet[int]) -> float:
        """Total local computation: pinned functions + local parts."""
        local_parts = sum(c for p, c in enumerate(self.computation) if p not in remote_parts)
        return self.pinned_computation + local_parts

    def weights(self, remote_parts: AbstractSet[int]) -> tuple[float, float, float]:
        """``(local, remote, cut)`` weights under *remote_parts*: all a
        placement contributes to the user's pricing."""
        return (
            self.local_weight(remote_parts),
            self.remote_weight(remote_parts),
            self.cut_weight(remote_parts),
        )

    def cut_weight(self, remote_parts: AbstractSet[int]) -> float:
        """Communication crossing the device/server boundary.

        Counts (a) inter-part edges whose endpoints sit on different
        sides and (b) remote parts' traffic to pinned-local functions.
        """
        total = 0.0
        for (i, j), weight in self.inter_comm.items():
            if (i in remote_parts) != (j in remote_parts):
                total += weight
        for p, anchor in enumerate(self.anchor):
            if p in remote_parts:
                total += anchor
        return total


@dataclass
class OffloadingScheme:
    """The final decision: which functions each user offloads."""

    remote_functions: dict[str, set[str]] = field(default_factory=dict)

    def remote_for(self, user_id: str) -> set[str]:
        """Functions user *user_id* executes on the edge server."""
        return self.remote_functions.get(user_id, set())

    def offload_count(self, user_id: str) -> int:
        """Number of functions user *user_id* offloads."""
        return len(self.remote_for(user_id))

    @property
    def total_offloaded(self) -> int:
        """Total offloaded functions across users."""
        return sum(len(functions) for functions in self.remote_functions.values())
