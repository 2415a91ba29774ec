"""Algorithm 2's greedy offloading scheme generation.

Input: every user's application already partitioned into parts (the two
sides of each compressed sub-graph's minimum cut).  Algorithm 2 then:

1. inserts all parts into ``V_2`` (the remote candidate set);
2. moves ``V_2'`` — the parts that clearly belong on the device — into
   ``V_1`` (the local set).  The paper leaves ``V_2'`` implicit; three
   readings are implemented (see :func:`initial_placement`), defaulting
   to the "anchored" one where each bisection's pinned-traffic-heavy side
   starts local;
3. while the combined consumption ``E_t + T_t`` keeps decreasing, moves
   the single part from ``V_2`` to ``V_1`` whose move minimises the
   resulting ``E + T`` (greedy best-move).

The loop monotonically decreases the objective and each part moves at
most once, so it terminates after at most ``|parts|`` iterations.

Implementation: the naive loop re-evaluates the whole system per
candidate (O(moves * parts * users) full evaluations).  Here a
:class:`PlacementEvaluator` computes each candidate move incrementally —
only the moved user's energy terms and the server-time aggregate change —
and a lazy-greedy priority queue (re-validate the top candidate, accept
if it still improves) avoids rescanning all parts per move.
``exhaustive=True`` forces the textbook full scan.

The two are not equivalent.  The queue is keyed by each candidate's
last-known value, and a move can make another candidate *better* than
its key says, so the lazy loop can take another path or stop where the
full scan still finds an improving move.  ``GOLDEN_GREEDY`` in
``tests/test_hotpath_parity.py`` pins both: on seeds 1, 4 and 7 the
lazy loop stops at 43.22, 44.71 and 43.84 where the full scan reaches
34.94, 37.86 and 35.98; on seeds 5 and 6 it takes another path to the
same end.  On the 100 seed-1 ``system-plan`` systems of ``perfbench``
no plan differs, and the lazy loop is the faster (``plan_system`` p50
17.5 ms against 20.3 ms for the full scan, 2-core host).

Nothing is computed twice.  The per-part tables (computation, anchor
traffic, adjacency, ``w_total``) are built once per
:class:`~repro.mec.scheme.PartitionedApplication`, which every user of
one graph shares; each user's device-side ``(energy, time)`` is cached
and refreshed only when one of their parts moves.  Frozen users (online
admission) come with the ``(local, remote, cut)`` weights their ledger
recorded, and neither the evaluator, the pricing nor the scheme walks
their parts again.  Under a shared
channel, the rates a round implies are read off that round's own
evaluation, the withdrawal sweep starts from the best round's
evaluation, a sweep trial recomputes only the flipped user's
``(local, remote, cut)``, and the sweep's last evaluation is the
result.  The server-time term stays the exact allocation over every
user: an aggregate form rounds differently (see DESIGN.md).

The evaluator holds no formula of its own: it prices through
:mod:`repro.mec.energy`'s scalar helpers, the same ones
:func:`~repro.mec.energy.price_user` composes for
:meth:`MECSystem.evaluate_placement`, idle floor included.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Mapping, Set as AbstractSet

from repro.mec.channel import PLANNING_ROUNDS
from repro.mec.energy import device_terms, remote_compute_time
from repro.mec.objective import ObjectiveWeights
from repro.mec.scheme import OffloadingScheme, PartitionedApplication
from repro.mec.system import MECSystem, SystemConsumption

_EPS = 1e-12


@dataclass
class GreedyResult:
    """Final scheme plus the objective trajectory of the greedy loop."""

    scheme: OffloadingScheme
    """The offloaded functions of every user the greedy could move;
    frozen users (online admission) are left out."""

    consumption: SystemConsumption
    moves: list[tuple[str, int]] = field(default_factory=list)
    """Parts moved local, in move order (user id, part id)."""

    history: list[float] = field(default_factory=list)
    """Combined objective after the initial placement and each move."""

    remote_parts: dict[str, set[int]] = field(default_factory=dict)
    """Final part-level placement (user id -> remote part ids)."""

    terms: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    """Each user's ``(local, remote, cut)`` weights under
    :attr:`remote_parts` (:meth:`PartitionedApplication.weights`), the
    numbers :attr:`consumption` was priced from."""

    contention_rounds: int = 0
    """Rate/placement fixed-point iterations run (0 = no shared channel:
    the paper's constant-``b`` evaluation needed no iteration)."""

    effective_rates: dict[str, float] = field(default_factory=dict)
    """The per-user effective uplink rates the *final* greedy round was
    priced at (empty without a shared channel)."""


INITIAL_PLACEMENT_MODES = ("anchored", "dominated", "all-remote")


def initial_placement(
    apps: Mapping[str, PartitionedApplication],
    bisections: Mapping[str, list[tuple[set[int], set[int]]]],
    mode: str = "anchored",
) -> dict[str, set[int]]:
    """Lines 7-8 of Algorithm 2: everything into ``V_2``, then ``V_2'``
    moves to ``V_1``.  The paper leaves ``V_2'`` implicit; three readings
    are provided (*mode*):

    * ``"anchored"`` (default, used by all reproduction experiments) —
      Section III-B says each sub-graph's cut yields "one part executes
      locally, and another part executes remotely": per bisection, the
      side with the heavier traffic toward the user's pinned-local
      functions starts local (ties: the lighter-computation side), the
      other side remote.  Un-split components start remote.
    * ``"dominated"`` — only *communication-dominated* sides (anchor
      traffic exceeding their computation weight) start local; everything
      else starts remote.  Reaches more schemes (remote sets only shrink
      under Algorithm 2's moves) but weakens the link between cut quality
      and transmission cost.
    * ``"all-remote"`` — the literal "insert all parts into V_2" with an
      empty ``V_2'`` (ablation baseline).
    """
    if mode not in INITIAL_PLACEMENT_MODES:
        raise ValueError(
            f"unknown initial placement mode {mode!r}; expected one of "
            f"{INITIAL_PLACEMENT_MODES}"
        )
    placement: dict[str, set[int]] = {}
    for user_id, app in apps.items():
        remote: set[int] = set()
        anchor = {part.part_id: part.anchor_traffic for part in app.parts}
        computation = {part.part_id: part.computation for part in app.parts}

        def side_anchor(side: set[int]) -> float:
            return sum(anchor.get(p, 0.0) for p in side)

        def side_comp(side: set[int]) -> float:
            return sum(computation.get(p, 0.0) for p in side)

        for side_one, side_two in bisections.get(user_id, []):
            if mode == "all-remote":
                remote |= side_one | side_two
                continue
            if mode == "dominated":
                for side in (side_one, side_two):
                    if side and side_anchor(side) <= side_comp(side):
                        remote |= side
                continue
            # mode == "anchored"
            if not side_one or not side_two:
                # Un-split component: Algorithm 2 inserts it into V_2.
                remote |= side_one | side_two
                continue
            anchor_one, anchor_two = side_anchor(side_one), side_anchor(side_two)
            if anchor_one > anchor_two:
                remote |= side_two
            elif anchor_two > anchor_one:
                remote |= side_one
            else:
                # Tie (often no anchors at all): ship the heavier side.
                if side_comp(side_one) >= side_comp(side_two):
                    remote |= side_one
                else:
                    remote |= side_two
        placement[user_id] = remote
    return placement


class PlacementEvaluator:
    """Incremental evaluation of part placements for one MEC system.

    The per-part tables that do not depend on the placement —
    ``computation``, ``anchor``, the total incident inter-part
    communication ``w_total`` and the part adjacency — are read from
    each :class:`~repro.mec.scheme.PartitionedApplication`, which builds
    them once and may share them among every user of one graph.  Only
    the communication toward currently-remote parts, ``w_remote``, is
    per pass; it is a plain list maintained incrementally.  A candidate
    move's cut change is then a closed form over three list reads —
    edges to still-remote parts start crossing, edges to local parts
    stop crossing, anchor traffic stops crossing::

        delta_cut(p) = -anchor[p] + 2 * w_remote[p] - w_total[p]

    Each user's device-side ``(energy, time)`` under the current
    placement is cached and refreshed only by :meth:`apply_move`, so
    :meth:`evaluate_move` prices the moved user's new terms alone plus
    the O(active users) server-time aggregate, and :meth:`combined` sums
    cached terms.  Only :meth:`apply_move` pays O(deg(p)) to refresh
    neighbors' ``w_remote``.

    *frozen* maps users that never move to their ``(local, remote,
    cut)`` weights under their *remote* sets, as
    :meth:`PartitionedApplication.weights` gives them.  They are priced
    at those weights, offer no candidate moves, and get no ``w_remote``
    list: their parts are never walked.
    """

    def __init__(
        self,
        system: MECSystem,
        apps: Mapping[str, PartitionedApplication],
        remote: Mapping[str, AbstractSet[int]],
        weights: ObjectiveWeights,
        rates: Mapping[str, float] | None = None,
        frozen: Mapping[str, tuple[float, float, float]] | None = None,
    ) -> None:
        self.system = system
        self.apps = apps
        self.weights = weights
        self.frozen: Mapping[str, tuple[float, float, float]] = frozen or {}
        self.rates: dict[str, float] = dict(rates or {})
        """Frozen per-user effective uplink rates for this greedy pass.
        Users absent from the mapping are priced at their private device
        bandwidth — exactly the paper's constant-``b`` model.  Under a
        shared channel the caller freezes ``b_i(n)`` from the previous
        fixed-point round so every move evaluation stays O(1) on the
        device side (see :func:`generate_offloading_scheme`)."""
        self.remote: dict[str, set[int]] = {u: set(p) for u, p in remote.items()}

        self._devices = {user_id: system.user(user_id).device for user_id in apps}
        # Per-user aggregates under the current placement, and the
        # per-part communication toward remote parts.
        self._local_w: dict[str, float] = {}
        self._remote_w: dict[str, float] = {}
        self._cut: dict[str, float] = {}
        self._w_remote: dict[str, list[float]] = {}
        self._terms: dict[str, tuple[float, float]] = {}
        for user_id, app in apps.items():
            if user_id in self.frozen:
                local_w, remote_w, cut = self.frozen[user_id]
            else:
                parts_remote = self.remote.get(user_id, set())
                w_remote = [0.0] * app.part_count
                for (i, j), weight in app.inter_comm.items():
                    if j in parts_remote:
                        w_remote[i] += weight
                    if i in parts_remote:
                        w_remote[j] += weight
                self._w_remote[user_id] = w_remote
                local_w, remote_w, cut = app.weights(parts_remote)
            self._local_w[user_id] = local_w
            self._remote_w[user_id] = remote_w
            self._cut[user_id] = cut
            self._terms[user_id] = self._device_terms(user_id, local_w, cut)

        self._cached_combined: float | None = None
        self._cached_server_time: float | None = None

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def _device_terms(self, user_id: str, local_w: float, cut: float) -> tuple[float, float]:
        """(energy, device-side time) for one user's local work and cut,
        at the user's effective rate."""
        device = self._devices[user_id]
        t_c, e_c, t_t, e_t = device_terms(
            device, local_w, cut, self.rates.get(user_id, device.bandwidth)
        )
        return e_c + e_t, t_c + t_t

    def _server_time_total(self, loads: Mapping[str, float]) -> float:
        """Sum over users of formula (2)'s remote time, incl. waiting."""
        allocation = self.system.allocation.allocate(self.system.server, loads)
        return sum(
            remote_compute_time(load, allocation.capacity_for(uid), allocation.waiting_for(uid))
            for uid, load in loads.items()
        )

    def combined(self) -> float:
        """Scalarised objective of the current placement (cached)."""
        if self._cached_combined is not None:
            return self._cached_combined
        value = 0.0
        for user_id in self.apps:
            energy, device_time = self._terms[user_id]
            value += self.weights.energy * energy + self.weights.time * device_time
        # e_c and e_t enter E while t_c and t_t enter T; server time (t_s,
        # waiting included) enters T only.
        value += self.weights.time * self._current_server_time()
        self._cached_combined = value
        return value

    def _current_server_time(self) -> float:
        if self._cached_server_time is None:
            self._cached_server_time = self._server_time_total(self._remote_w)
        return self._cached_server_time

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def _move_deltas(self, user_id: str, part_id: int) -> tuple[float, float, float]:
        """(new_local_w, new_remote_w, new_cut) for user after moving part local."""
        app = self.apps[user_id]
        computation = app.computation[part_id]
        delta_cut = (
            -app.anchor[part_id]
            + 2.0 * self._w_remote[user_id][part_id]
            - app.w_total[part_id]
        )
        # Exact arithmetic keeps the remote load and the cut non-negative;
        # incremental float updates can leave a ~1e-16 residue that the
        # (validating) formula helpers would reject.  Clamp here.
        return (
            self._local_w[user_id] + computation,
            max(self._remote_w[user_id] - computation, 0.0),
            max(self._cut[user_id] + delta_cut, 0.0),
        )

    def evaluate_move(self, user_id: str, part_id: int) -> float:
        """Objective value if (user, part) moved local; state unchanged."""
        if part_id not in self.remote.get(user_id, set()):
            raise ValueError(f"part {part_id} of {user_id!r} is not remote")
        new_local, new_remote, new_cut = self._move_deltas(user_id, part_id)

        old_energy, old_time = self._terms[user_id]
        new_energy, new_time = self._device_terms(user_id, new_local, new_cut)
        delta_device = self.weights.energy * (new_energy - old_energy) + self.weights.time * (
            new_time - old_time
        )

        loads = dict(self._remote_w)
        loads[user_id] = new_remote
        delta_server = self._server_time_total(loads) - self._current_server_time()
        return self.combined() + delta_device + self.weights.time * delta_server

    def apply_move(self, user_id: str, part_id: int) -> None:
        """Commit the move of (user, part) to local."""
        new_local, new_remote, new_cut = self._move_deltas(user_id, part_id)
        self.remote[user_id].discard(part_id)
        self._local_w[user_id] = new_local
        self._remote_w[user_id] = new_remote
        self._cut[user_id] = new_cut
        self._terms[user_id] = self._device_terms(user_id, new_local, new_cut)
        # The moved part left the remote set: its neighbors' remote-facing
        # communication drops by the shared edge weight.
        w_remote = self._w_remote[user_id]
        for other, weight in self.apps[user_id].adjacency[part_id]:
            w_remote[other] -= weight
        self._cached_combined = None
        self._cached_server_time = None

    def candidates(self) -> list[tuple[str, int]]:
        """All currently-remote (user, part) pairs of users that may move,
        in deterministic order."""
        return [
            (user_id, part_id)
            for user_id in sorted(self.remote)
            if user_id not in self.frozen
            for part_id in sorted(self.remote[user_id])
        ]


def generate_offloading_scheme(
    system: MECSystem,
    apps: Mapping[str, PartitionedApplication],
    bisections: Mapping[str, list[tuple[set[int], set[int]]]],
    weights: ObjectiveWeights | None = None,
    exhaustive: bool = False,
    placement_mode: str = "anchored",
    frozen: Mapping[str, tuple[AbstractSet[int], tuple[float, float, float]]] | None = None,
) -> GreedyResult:
    """Run Algorithm 2 and return the generated scheme.

    *apps* maps each user to their partitioned application; users of one
    graph may share one partition (see :class:`PlacementEvaluator`).
    *weights* scalarises the double objective (defaults to Algorithm 2's
    unweighted sum); *placement_mode* selects the ``V_2'`` reading (see
    :func:`initial_placement`).  *frozen* pins users to existing
    placements (online admission): it maps each such user to their
    remote part set and that placement's ``(local, remote, cut)``
    weights (:meth:`PartitionedApplication.weights`), as the ledger
    recorded them at commit.  A frozen user's remote set is taken
    verbatim, none of their parts become candidate moves — they only
    contribute load, priced from their weights — and their parts are
    never walked, so the scheme lists only the other users.  With
    ``exhaustive=True`` every iteration rescans all
    candidates (the literal Algorithm 2 loop); the default lazy-greedy
    keeps candidates in a priority queue keyed by their last-known
    improvement and re-validates the top entry before accepting.  It is
    faster, but not equivalent: a move can improve a queued candidate
    beyond its key, so the lazy loop can take another path or stop
    early (see the module docstring for the pinned cases).

    With a :class:`~repro.mec.channel.SharedChannel` on *system*, the
    effective rate every user transmits at depends on who offloads, and
    who offloads depends on the rate — a fixed point.  The greedy
    iterates it: each round freezes ``b_i(n)`` from the previous round's
    co-offloading set, re-runs the full greedy from the same initial
    placement, and stops when the rates reproduce themselves (or after
    :data:`~repro.mec.channel.PLANNING_ROUNDS` rounds; congestion fixed
    points can oscillate, so the round whose placement evaluates best
    under its *own* contention-consistent rates wins).  Per-part moves
    can never *thin* the co-offloading population — every intermediate
    placement still transmits — so a final whole-user sweep offers each
    contention-limited, unfrozen offloader the switch to fully local
    (and local users their remote set back once spectrum frees up),
    accepting flips that lower the evaluated system objective.  With one
    offloading user and a channel at least as fast as the device link
    the rates equal the private bandwidths, the sweep finds nothing to
    flip, and the result is bit-identical to the constant-``b`` path
    (pinned by the parity tests).
    """
    weights = weights or ObjectiveWeights()
    frozen = frozen or {}
    frozen_terms = {uid: terms for uid, (_, terms) in frozen.items()}
    initial = initial_placement(
        {uid: app for uid, app in apps.items() if uid not in frozen},
        bisections,
        mode=placement_mode,
    )
    remote = {uid: frozen[uid][0] if uid in frozen else initial[uid] for uid in apps}

    def placement_terms(
        placement: Mapping[str, set[int]],
    ) -> dict[str, tuple[float, float, float]]:
        """:meth:`MECSystem.placement_terms` with frozen users' weights
        read from *frozen_terms*."""
        return {
            uid: frozen_terms[uid] if uid in frozen_terms else app.weights(placement.get(uid, set()))
            for uid, app in apps.items()
        }

    def run_pass(
        rates: Mapping[str, float] | None,
    ) -> tuple[PlacementEvaluator, list[tuple[str, int]], list[float]]:
        """One full greedy descent from the initial placement."""
        evaluator = PlacementEvaluator(
            system, apps, remote, weights, rates=rates, frozen=frozen_terms
        )
        best_value = evaluator.combined()
        history = [best_value]
        moves: list[tuple[str, int]] = []

        if exhaustive:
            while True:
                best_candidate: tuple[str, int] | None = None
                best_candidate_value = best_value
                for user_id, part_id in evaluator.candidates():
                    value = evaluator.evaluate_move(user_id, part_id)
                    if value < best_candidate_value - _EPS:
                        best_candidate = (user_id, part_id)
                        best_candidate_value = value
                if best_candidate is None:
                    break
                evaluator.apply_move(*best_candidate)
                best_value = best_candidate_value
                history.append(best_value)
                moves.append(best_candidate)
        else:
            # Lazy greedy: heap of (last-known objective-after-move, candidate).
            # heapify and sequential heappush build different internal arrays,
            # but every (value, user, part) key is distinct, so the pop
            # sequence — all the greedy loop observes — is identical.
            heap: list[tuple[float, str, int]] = [
                (evaluator.evaluate_move(user_id, part_id), user_id, part_id)
                for user_id, part_id in evaluator.candidates()
            ]
            heapq.heapify(heap)
            while heap:
                value, user_id, part_id = heapq.heappop(heap)
                if part_id not in evaluator.remote.get(user_id, set()):
                    continue
                current = evaluator.evaluate_move(user_id, part_id)
                if current > value + _EPS:
                    # Stale entry: the move got worse since it was queued.
                    # Requeue with the fresh value unless it can no longer
                    # improve at all.  Each requeue strictly increases the
                    # stored key, so the loop terminates.
                    if current < best_value - _EPS:
                        heapq.heappush(heap, (current, user_id, part_id))
                    continue
                # Fresh value is at least as good as its stored key, which was
                # the heap minimum — accept it if it improves, otherwise stop.
                # Other keys are last-known values that a move may have made
                # stale on the high side, so this stop can come before the
                # full scan's (see the module docstring).
                if current >= best_value - _EPS:
                    break
                evaluator.apply_move(user_id, part_id)
                best_value = current
                history.append(best_value)
                moves.append((user_id, part_id))
        return evaluator, moves, history

    channel = system.channel
    contention_rounds = 0
    final_rates: dict[str, float] = {}
    if channel is None:
        evaluator, moves, history = run_pass(None)
        final_remote = evaluator.remote
    else:
        bandwidths = {
            uid: system.user(uid).device.bandwidth for uid in sorted(apps)
        }

        # Round 1 runs at the *uncontended* rates (active set empty →
        # ``n = 1``), i.e. it reproduces the contention-blind greedy
        # exactly; since every round's placement is evaluated under its
        # own contention-consistent rates and the best one wins, the
        # result can never be worse than contention-blind planning
        # evaluated under the channel.  Later rounds freeze the rates
        # the previous round's co-offloading set implies.
        rates = channel.planning_rates(bandwidths, [])
        seen_rates = {tuple(sorted(rates.items()))}
        best_combined = float("inf")
        best_consumption = SystemConsumption()
        candidates: dict[str, set[int]] = {}
        for round_index in range(PLANNING_ROUNDS):
            round_evaluator, round_moves, round_history = run_pass(rates)
            contention_rounds += 1
            if round_index == 0:
                # The uncontended pass: each user's remote set here is
                # their best-case offload — the re-offer candidate the
                # sweep below hands back to withdrawn users.
                candidates = {
                    uid: set(parts) for uid, parts in round_evaluator.remote.items()
                }
            actual = system.price_terms(placement_terms(round_evaluator.remote))
            combined = actual.combined(weights)
            if combined < best_combined:
                best_combined = combined
                best_consumption = actual
                evaluator, moves, history = round_evaluator, round_moves, round_history
            # The rates this round's co-offloading set implies are the
            # ones its evaluation was priced at.
            new_rates = actual.effective_bandwidth
            rates_key = tuple(sorted(new_rates.items()))
            if rates_key in seen_rates:
                # Fixed point reached, or the iteration entered a cycle
                # (congestion fixed points can oscillate) — either way
                # no new placements are coming.
                break
            seen_rates.add(rates_key)
            rates = new_rates

        # Withdrawal/re-offer sweep: per-part moves leave every offloader
        # transmitting, so the co-offloading population never shrinks
        # within a pass.  Sweep at whole-user granularity instead: a
        # contention-limited offloader (effective rate strictly below
        # their own link) is offered the switch to fully local, and a
        # local user is offered their pass-final remote set back (the
        # spectrum freed by earlier withdrawals may now make it pay).
        # Flips that lower the evaluated system objective are accepted
        # until a full sweep is quiet.  Frozen users never flip; with a
        # single offloading user at full rate both directions are
        # no-ops, preserving constant-``b`` parity.  A trial changes one
        # user, so only that user's (local, remote, cut) is recomputed.
        placement = {uid: set(parts) for uid, parts in evaluator.remote.items()}
        consumption = best_consumption
        terms = placement_terms(placement)
        improved = True
        while improved:
            improved = False
            for user_id in sorted(placement):
                if user_id in frozen:
                    continue
                if placement[user_id]:
                    rate = consumption.effective_bandwidth.get(user_id)
                    if rate is None or rate >= bandwidths[user_id]:
                        continue
                    alternative: set[int] = set()
                else:
                    alternative = candidates[user_id]
                    if not alternative:
                        continue
                trial_terms = dict(terms)
                trial_terms[user_id] = apps[user_id].weights(alternative)
                trial_consumption = system.price_terms(trial_terms)
                trial_combined = trial_consumption.combined(weights)
                if trial_combined < best_combined - _EPS:
                    placement[user_id] = alternative
                    terms = trial_terms
                    consumption = trial_consumption
                    best_combined = trial_combined
                    improved = True
        final_remote = placement
        final_rates = dict(consumption.effective_bandwidth)

    if channel is None:
        terms = placement_terms(final_remote)
        consumption = system.price_terms(terms)
    scheme = OffloadingScheme(
        remote_functions={
            user_id: {
                function
                for part in apps[user_id].parts
                if part.part_id in parts
                for function in part.functions
            }
            for user_id, parts in final_remote.items()
            if user_id not in frozen
        }
    )
    return GreedyResult(
        scheme=scheme,
        consumption=consumption,
        moves=moves,
        history=history,
        remote_parts=final_remote,
        terms=terms,
        contention_rounds=contention_rounds,
        effective_rates=dict(final_rates),
    )
