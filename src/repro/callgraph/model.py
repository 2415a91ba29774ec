"""Function call graph model: the artifact the offloading pipeline consumes.

A :class:`FunctionCallGraph` is a weighted undirected graph (node weight =
computation, edge weight = communication, per Section II of the paper) plus
per-function metadata: which component the function belongs to and whether
it may be offloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator

from repro.graphs.weighted_graph import WeightedGraph


@dataclass(frozen=True)
class FunctionInfo:
    """Metadata for one function node."""

    name: str
    computation: float
    component: str = "main"
    offloadable: bool = True


class FunctionCallGraph:
    """The function data flow graph ``G^i = (V^i, F^i)`` of one application.

    Wraps a :class:`WeightedGraph` and maintains the ``V_c`` (must run
    locally) / ``V_s`` (offloadable) split of Section II.

    >>> fcg = FunctionCallGraph("demo")
    >>> _ = fcg.add_function("main", computation=1.0, offloadable=False)
    >>> _ = fcg.add_function("fft", computation=50.0)
    >>> fcg.add_data_flow("main", "fft", amount=10.0)
    >>> sorted(fcg.offloadable_functions())
    ['fft']
    """

    def __init__(self, app_name: str = "app") -> None:
        self.app_name = app_name
        self._graph = WeightedGraph()
        self._info: dict[str, FunctionInfo] = {}
        self._digest_memo: tuple[int, str] | None = None
        """``(graph version, digest)`` of the last :meth:`memoized_digest`."""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_function(
        self,
        name: str,
        computation: float,
        component: str = "main",
        offloadable: bool = True,
    ) -> FunctionInfo:
        """Register a function node; returns its :class:`FunctionInfo`."""
        info = FunctionInfo(
            name=name,
            computation=float(computation),
            component=component,
            offloadable=offloadable,
        )
        self._graph.add_node(name, weight=info.computation, component=component)
        self._info[name] = info
        return info

    def add_data_flow(self, u: str, v: str, amount: float) -> None:
        """Record *amount* units of communication between functions u and v.

        Repeated calls accumulate (multiple call sites between the same
        functions add up their traffic).
        """
        self._graph.add_edge(u, v, weight=amount)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> WeightedGraph:
        """The underlying weighted graph (shared, not a copy)."""
        return self._graph

    def info(self, name: str) -> FunctionInfo:
        """Return metadata for function *name*."""
        if name not in self._info:
            raise KeyError(f"function {name!r} does not exist")
        return self._info[name]

    def functions(self) -> Iterator[str]:
        """Iterate over function names."""
        return iter(self._info)

    def function_infos(self) -> Iterator[FunctionInfo]:
        """Iterate over every function's metadata, in insertion order."""
        return iter(self._info.values())

    @property
    def function_count(self) -> int:
        """Number of functions."""
        return len(self._info)

    def offloadable_functions(self) -> list[str]:
        """Names of functions in ``V_s`` (may be offloaded)."""
        return [name for name, info in self._info.items() if info.offloadable]

    def unoffloadable_functions(self) -> list[str]:
        """Names of functions in ``V_c`` (pinned to the device)."""
        return [name for name, info in self._info.items() if not info.offloadable]

    def components(self) -> list[str]:
        """Distinct component names, in first-seen order."""
        seen: list[str] = []
        for info in self._info.values():
            if info.component not in seen:
                seen.append(info.component)
        return seen

    def component_members(self, component: str) -> list[str]:
        """Function names belonging to *component*."""
        return [name for name, info in self._info.items() if info.component == component]

    def total_computation(self) -> float:
        """Total computation weight across all functions."""
        return self._graph.total_node_weight()

    def total_communication(self) -> float:
        """Total communication weight across all data flows."""
        return self._graph.total_edge_weight()

    def memoized_digest(self, compute: Callable[["FunctionCallGraph"], str]) -> str:
        """``compute(self)``, recomputed only when the graph has changed.

        The memo holds the digest with the :attr:`WeightedGraph.version` it
        was computed at, and answers while that version still matches.
        Every change to this call graph goes through a graph mutator
        (:meth:`add_function` adds a node, :meth:`add_data_flow` an edge,
        and edits through :attr:`graph` are the graph's own), so a match
        means unchanged content.  The version is read *before* *compute*
        walks the graph: an edit made during the walk leaves a stale
        version behind, and the next call recomputes.  There is one memo,
        for one content digest (the service's ``graph_fingerprint``).
        """
        version = self._graph.version
        memo = self._digest_memo
        if memo is not None and memo[0] == version:
            return memo[1]
        digest = compute(self)
        self._digest_memo = (version, digest)
        return digest

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def offloadable_subgraph(self) -> WeightedGraph:
        """Induced subgraph over ``V_s`` only.

        This is Line 1 of Algorithm 1 ("remove_unoffloaded"): unoffloadable
        functions are excluded before compression; their cost is accounted
        separately by the MEC energy model as mandatory local work.
        """
        return self._graph.subgraph(self.offloadable_functions())

    def local_anchor_traffic(self, nodes: Iterable[str]) -> float:
        """Communication between *nodes* and the unoffloadable functions.

        When a group of offloadable functions executes remotely, every data
        flow it has with a pinned-local function crosses the wireless link.
        :class:`~repro.mec.scheme.PartitionedApplication` collects the same
        sum for all of its parts in one edge walk; this is the one-group
        query.  The sum is exact (``math.fsum``), so it does not depend on the
        iteration order of *nodes* — typically a set of names, whose order
        follows the interpreter's hash seed.
        """
        pinned = set(self.unoffloadable_functions())
        return math.fsum(
            weight
            for node in nodes
            for neighbor, weight in self._graph.neighbor_items(node)
            if neighbor in pinned
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FunctionCallGraph(app={self.app_name!r}, functions={self.function_count}, "
            f"flows={self._graph.edge_count})"
        )
