"""The offloading planner: compress, cut, generate (the full pipeline).

Per application: drop unoffloadable functions, compress the remainder
with Algorithm 1, bisect each compressed connected sub-graph with the
configured cut strategy, and expand the two sides back to function sets
(the *parts*).  Per system: partition every user's application into those
parts and run Algorithm 2's greedy to place them.

Identical applications are planned once: ``plan_system`` caches per
*content fingerprint* (see :mod:`repro.service.fingerprint`), so
structurally identical graphs share plans even when they arrive as
distinct objects — the realistic multi-user case.  Configs that cannot
be fingerprinted (custom objects without a canonical encoding) are
planned without caching; identity-keyed caching is deliberately absent
because object ids are recycled after garbage collection.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Mapping

from repro.callgraph.model import FunctionCallGraph
from repro.compression.compressor import GraphCompressor
from repro.core.config import PlannerConfig
from repro.core.results import CutStrategy, PlanResult, UserPlan
from repro.graphs.components import connected_components
from repro.graphs.weighted_graph import WeightedGraph
from repro.mec.greedy import generate_offloading_scheme
from repro.mec.scheme import PartitionedApplication
from repro.mec.system import MECSystem
from repro.utils.timer import Stopwatch


class OffloadingPlanner:
    """Plans offloading schemes for single apps and multi-user systems."""

    def __init__(
        self,
        cut_strategy: CutStrategy,
        config: PlannerConfig | None = None,
        strategy_name: str = "custom",
    ) -> None:
        self.cut_strategy = cut_strategy
        self.config = config or PlannerConfig()
        self.strategy_name = strategy_name
        self._compressor = GraphCompressor(self.config.compression)

    # ------------------------------------------------------------------
    # Per-application planning
    # ------------------------------------------------------------------
    def plan_user(self, call_graph: FunctionCallGraph) -> UserPlan:
        """Compress and cut one application into placement parts."""
        offloadable = call_graph.offloadable_subgraph()
        original_nodes = offloadable.node_count
        original_edges = offloadable.edge_count

        if original_nodes == 0:
            return UserPlan(
                app_name=call_graph.app_name,
                parts=[],
                bisections=[],
                compressed_nodes=0,
                compressed_edges=0,
                original_nodes=0,
                original_edges=0,
                stage_seconds={"compress": 0.0, "cut": 0.0},
            )

        compress_watch = Stopwatch()
        cut_watch = Stopwatch()

        if self.config.skip_compression:
            working = offloadable
            expand = lambda ids: set(ids)  # noqa: E731 - trivial identity
            rounds = 0
        else:
            with compress_watch:
                result = self._compressor.compress(offloadable)
            working = result.compressed.graph
            compressed = result.compressed
            expand = lambda ids: compressed.expand(ids)  # noqa: E731
            rounds = result.rounds_total

        parts: list[frozenset[str]] = []
        bisections: list[tuple[set[int], set[int]]] = []
        cut_values: list[float] = []

        for component in connected_components(working):
            subgraph = working.subgraph(component)
            if subgraph.node_count < 2:  # a lone node has nothing to split
                index = self._add_part(parts, expand(component))
                bisections.append(({index}, set()))
                cut_values.append(0.0)
                continue
            if self.config.multiway_parts > 2:
                with cut_watch:
                    self._plan_multiway(subgraph, expand, parts, bisections, cut_values)
                continue
            with cut_watch:
                outcome = self.cut_strategy(subgraph)
            index_one = self._add_part(parts, expand(outcome.part_one))
            side_one = {index_one} if index_one is not None else set()
            index_two = self._add_part(parts, expand(outcome.part_two))
            side_two = {index_two} if index_two is not None else set()
            bisections.append((side_one, side_two))
            cut_values.append(outcome.cut_value)

        return UserPlan(
            app_name=call_graph.app_name,
            parts=parts,
            bisections=bisections,
            compressed_nodes=working.node_count,
            compressed_edges=working.edge_count,
            original_nodes=original_nodes,
            original_edges=original_edges,
            cut_values=cut_values,
            propagation_rounds=rounds,
            stage_seconds={
                "compress": compress_watch.elapsed,
                "cut": cut_watch.elapsed,
            },
        )

    def _plan_multiway(
        self,
        subgraph: WeightedGraph,
        expand,
        parts: list[frozenset[str]],
        bisections: list[tuple[set[int], set[int]]],
        cut_values: list[float],
    ) -> None:
        """Extension path: recursive spectral partitioning of one component.

        All resulting parts are registered as one placement group that
        starts fully remote (Algorithm 2's "insert into V_2"); the greedy
        loop then pulls individual parts back with its finer granularity.
        """
        from repro.spectral.recursive import recursive_spectral_partition

        partition = recursive_spectral_partition(
            subgraph,
            max_parts=self.config.multiway_parts,
            max_cut_ratio=0.5,
        )
        indices: set[int] = set()
        for piece in partition.parts:
            index = self._add_part(parts, expand(piece))
            if index is not None:
                indices.add(index)
        bisections.append((set(), indices))
        cut_values.append(partition.cut_total)

    @staticmethod
    def _add_part(parts: list[frozenset[str]], functions: set) -> int | None:
        """Append a part; empty sides produce no part (returns ``None``)."""
        named = frozenset(str(f) for f in functions)
        if not named:
            return None
        parts.append(named)
        return len(parts) - 1

    # ------------------------------------------------------------------
    # System planning
    # ------------------------------------------------------------------
    def plan_system(
        self,
        system: MECSystem,
        call_graphs: Mapping[str, FunctionCallGraph],
    ) -> PlanResult:
        """Plan every user's application and run Algorithm 2's greedy.

        *call_graphs* maps user id to the application; structurally
        identical graphs (same content fingerprint — not merely
        ``is``-identical objects) are planned once and their parts
        reused.  When the planner config cannot be fingerprinted the
        graph is planned without caching: no identity-derived key ever
        enters the cache, so a recycled object id can never alias two
        different graphs onto one plan.

        Each distinct graph *object* is fingerprinted and partitioned once
        per call, however many users share it, and its one
        :class:`~repro.mec.scheme.PartitionedApplication` serves all of
        them: a partition holds nothing per user.  ``call_graphs`` keeps
        every object alive for the whole call, so the object-keyed
        ``keys`` and ``partitions`` tables cannot confuse two graphs.
        Across calls the fingerprint itself is memoized on the object and
        follows its edits (:func:`~repro.service.fingerprint.graph_fingerprint`);
        the ``partitions`` table lives only for this call — ``.graph`` is
        mutable, so a partition kept across calls could go stale.
        Algorithm 2 then runs over these shared partitions (see
        :func:`~repro.mec.greedy.generate_offloading_scheme`).
        """
        started = time.perf_counter()

        keys: dict[FunctionCallGraph, Hashable | None] = {}
        plan_cache: dict[Hashable, UserPlan] = {}
        partitions: dict[FunctionCallGraph, PartitionedApplication] = {}
        user_plans: dict[str, UserPlan] = {}
        apps: dict[str, PartitionedApplication] = {}
        bisections: dict[str, list[tuple[set[int], set[int]]]] = {}

        for user in system.users:
            call_graph = call_graphs.get(user.user_id)
            if call_graph is None:
                raise KeyError(f"no call graph supplied for user {user.user_id!r}")
            if call_graph in keys:
                cache_key = keys[call_graph]
            else:
                cache_key = keys[call_graph] = self._plan_key(call_graph)
            if cache_key is None:
                plan = self.plan_user(call_graph)
            elif cache_key in plan_cache:
                plan = plan_cache[cache_key]
            else:
                plan = plan_cache[cache_key] = self.plan_user(call_graph)
            user_plans[user.user_id] = plan
            app = partitions.get(call_graph)
            if app is None:
                app = partitions[call_graph] = PartitionedApplication(
                    user_id=user.user_id,
                    call_graph=call_graph,
                    part_sets=plan.parts,
                )
            apps[user.user_id] = app
            bisections[user.user_id] = plan.bisections

        greedy = generate_offloading_scheme(
            system,
            apps,
            bisections,
            weights=self.config.objective,
            placement_mode=self.config.initial_placement_mode,
        )
        elapsed = time.perf_counter() - started
        return PlanResult(
            scheme=greedy.scheme,
            consumption=greedy.consumption,
            user_plans=user_plans,
            greedy=greedy,
            planning_seconds=elapsed,
            strategy_name=self.strategy_name,
        )

    def _plan_key(self, call_graph: FunctionCallGraph) -> Hashable | None:
        """Content-fingerprint cache key, or ``None`` if unfingerprintable.

        The service layer shares the exact same keying (see
        :func:`repro.service.fingerprint.request_fingerprint`), so plans
        cached here and plans cached there never disagree about what
        counts as "the same request".  ``None`` means "do not cache":
        there is deliberately no identity fallback, because ``id()``
        values are recycled after garbage collection and an id-keyed
        entry can serve one graph's plan for a different graph.
        """
        # Local import: repro.service sits above repro.core in the layer
        # order; only this helper reaches up, and only lazily.
        from repro.service.fingerprint import FingerprintError, request_fingerprint

        try:
            return request_fingerprint(call_graph, self.config, self.strategy_name)
        except FingerprintError:
            return None
