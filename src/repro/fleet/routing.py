"""Pluggable user→server routing policies for the edge fleet.

A policy answers one question: *which server should admit this request?*
It sees the request's content fingerprint (computed by the fleet with
:func:`repro.service.fingerprint.request_fingerprint`) and a snapshot of
every eligible server's load, and returns a server id.  Five standard
disciplines are provided:

* :class:`RoundRobinRouting` — cycle through servers in order; perfectly
  balanced on uniform traffic, oblivious to load and to content.
* :class:`LeastLoadedRouting` — always pick the currently least-loaded
  server (join-the-shortest-queue); optimal balance, but every request
  consults global state and identical apps scatter across servers.
* :class:`PowerOfTwoRouting` — sample two servers, pick the less loaded
  (Mitzenmacher's power of two choices); near-JSQ balance with O(1)
  sampled state.
* :class:`FingerprintAffinityRouting` — consistent hashing over the
  request fingerprint, so structurally identical apps land on the same
  server and hit its plan cache; server removal only remaps the keys
  that lived on the removed server.
* :class:`ForecastRouting` — join the server with the lowest
  *forecasted* utilisation (:attr:`ServerLoad.predicted_utilisation`,
  filled from the fleet's telemetry), steering arrivals away from
  servers that are trending hot; falls back to current utilisation on
  a cold fleet.

The load-aware policies balance on a selectable metric
(``balance_on="users"`` counts admitted users; ``"utilisation"`` ranks
by offloaded work over server capacity, which is what heterogeneous
pools need — a 250-capacity shard with 5 users is *more* loaded than a
1000-capacity shard with 8) and can fold each candidate's
:attr:`ServerLoad.rtt` into the choice via *latency_weight*, trading
queue length against proximity.  Affinity accepts a *latency_slack*
that relaxes strict ring ownership toward nearby servers.

Policies are deliberately *stateless about users* — the fleet owns
admission — but may keep routing state (the round-robin position, the
hash ring, the sampling RNG), all deterministic from the constructor
arguments.
"""

from __future__ import annotations

import abc
import bisect
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.utils.rng import RandomSource

BALANCE_METRICS = ("users", "utilisation")
"""Valid ``balance_on`` values for the load-aware policies."""


@dataclass(frozen=True)
class ServerLoad:
    """Point-in-time load snapshot of one fleet server."""

    server_id: str
    users: int
    """Admitted users — the balance metric of the acceptance criteria."""

    remote_load: float = 0.0
    """Total computation weight currently offloaded to this server."""

    capacity: float = 0.0
    """The server's total capacity (for utilisation-aware policies)."""

    rtt: float = 0.0
    """Round-trip time between the *requesting user* and this server.

    Filled per-request by the fleet from its
    :class:`~repro.fleet.latency.LatencyMap`; zero under the default
    single-site model.
    """

    predicted_utilisation: float | None = None
    """Forecasted utilisation a few ticks out, filled by the fleet from
    its :class:`~repro.forecast.proactive.FleetTelemetry` when one is
    attached; ``None`` when the fleet does not forecast (or the series
    has no history yet).  Only :class:`ForecastRouting` consults it."""

    @property
    def utilisation(self) -> float:
        """remote_load / capacity; 0.0 for an unprovisioned server."""
        if self.capacity <= 0:
            return 0.0
        return self.remote_load / self.capacity


def _check_balance_on(balance_on: str) -> str:
    if balance_on not in BALANCE_METRICS:
        raise ValueError(
            f"unknown balance metric {balance_on!r}; "
            f"expected one of {list(BALANCE_METRICS)}"
        )
    return balance_on


def _load_key(
    load: ServerLoad, balance_on: str, latency_weight: float
) -> tuple[float, float, float, str]:
    """Total order for "less loaded": metric (+ weighted RTT), then ties.

    With ``balance_on="users"`` and ``latency_weight=0`` this reduces to
    the classic ``(users, remote_load, server_id)`` JSQ key; utilisation
    mode ranks by offloaded-work share first so heterogeneous capacities
    are respected, falling back to user counts on utilisation ties (an
    empty fleet has utilisation 0 everywhere).
    """
    penalty = latency_weight * load.rtt
    if balance_on == "utilisation":
        return (load.utilisation + penalty, float(load.users), load.remote_load, load.server_id)
    return (float(load.users) + penalty, load.remote_load, 0.0, load.server_id)


class RoutingPolicy(abc.ABC):
    """Strategy deciding which server admits a plan request."""

    name: str = "custom"

    @abc.abstractmethod
    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        """Return the chosen server id for the request named *key*.

        *servers* is non-empty and lists only eligible (alive, below
        any user cap) servers; the fleet raises before calling a policy
        with nothing to choose from.
        """


class RoundRobinRouting(RoutingPolicy):
    """Cycle through the eligible servers in sorted-id order.

    The cursor tracks the *last-served server id*, not a raw counter:
    each route picks the smallest eligible id strictly greater than the
    last one (wrapping around), so every pass visits every eligible
    server exactly once even while the eligible set grows and shrinks.
    A counter taken modulo a changing set size skips or double-hits
    servers whenever eligibility changes between calls.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._last: str | None = None

    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        ordered = sorted(server.server_id for server in servers)
        if self._last is None:
            choice = ordered[0]
        else:
            index = bisect.bisect_right(ordered, self._last)
            choice = ordered[index % len(ordered)]
        self._last = choice
        return choice


class LeastLoadedRouting(RoutingPolicy):
    """Join the shortest queue on the configured balance metric.

    ``balance_on="users"`` (default) is the classic fewest-users JSQ
    with ties by remote load then id; ``"utilisation"`` joins the server
    with the lowest offloaded-work/capacity ratio, which balances
    *work* rather than *headcount* across heterogeneous capacities.  A
    positive *latency_weight* adds ``weight * rtt`` to each candidate's
    metric, steering users toward nearby servers when queues are close.
    """

    name = "least-loaded"

    def __init__(
        self, balance_on: str = "users", latency_weight: float = 0.0
    ) -> None:
        self.balance_on = _check_balance_on(balance_on)
        self.latency_weight = latency_weight

    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        best = min(
            servers, key=lambda s: _load_key(s, self.balance_on, self.latency_weight)
        )
        return best.server_id


class PowerOfTwoRouting(RoutingPolicy):
    """Sample two servers uniformly, admit on the less loaded one.

    The classic load-balancing result: two random choices reduce the
    maximum load from ``Θ(log n / log log n)`` to ``Θ(log log n)``
    relative to one random choice, while touching only two servers'
    state per decision.  The sampling stream is deterministic from
    *seed*, so traces replay identically.  The pairwise comparison uses
    the same *balance_on* / *latency_weight* key as
    :class:`LeastLoadedRouting`.
    """

    name = "power-of-two"

    def __init__(
        self, seed: int = 0, balance_on: str = "users", latency_weight: float = 0.0
    ) -> None:
        self._rng = RandomSource(seed).spawn("power-of-two")
        self.balance_on = _check_balance_on(balance_on)
        self.latency_weight = latency_weight

    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        ordered = sorted(servers, key=lambda s: s.server_id)
        if len(ordered) == 1:
            return ordered[0].server_id
        first, second = self._rng.sample(ordered, 2)
        best = min(
            (first, second),
            key=lambda s: _load_key(s, self.balance_on, self.latency_weight),
        )
        return best.server_id


class ForecastRouting(RoutingPolicy):
    """Join the server with the lowest *forecasted* utilisation.

    Where :class:`LeastLoadedRouting` balances on the load a server has
    *now*, this policy balances on the load the fleet's telemetry
    predicts it will have a few ticks out
    (:attr:`ServerLoad.predicted_utilisation`), steering arrivals away
    from servers that are still cool but trending hot.  Candidates
    without a forecast fall back to their current utilisation, so the
    policy degrades to utilisation-balanced JSQ on a cold fleet or a
    fleet without telemetry.  A positive *latency_weight* folds each
    candidate's RTT into the choice, as in the other load-aware
    policies.
    """

    name = "forecast"

    def __init__(self, latency_weight: float = 0.0) -> None:
        self.latency_weight = latency_weight

    def _key(self, load: ServerLoad) -> tuple[float, float, float, str]:
        outlook = load.predicted_utilisation
        if outlook is None:
            outlook = load.utilisation
        return (
            outlook + self.latency_weight * load.rtt,
            float(load.users),
            load.remote_load,
            load.server_id,
        )

    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        return min(servers, key=self._key).server_id


def _ring_hash(value: str) -> int:
    """Stable 64-bit position on the hash ring."""
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")


VIRTUAL_NODES = 64
"""Points each server takes on the affinity hash ring."""


class FingerprintAffinityRouting(RoutingPolicy):
    """Consistent hashing on the request fingerprint.

    Requests are routed by hashing their content fingerprint (the same
    key :class:`~repro.service.plan_cache.PlanCache` uses) onto a ring
    of virtual nodes, so structurally identical apps land on the same
    server and hit its plan cache — the fleet-wide hit rate matches a
    single shared cache, without sharing anything.
    :data:`VIRTUAL_NODES` virtual nodes per server smooth the key
    distribution; removing a server (failover) remaps only the keys that
    lived on it.

    *latency_slack* trades that cache locality against proximity: when
    set, candidates are considered in ring order (the affinity
    preference) and the first whose RTT is within *latency_slack* of
    the nearest server wins.  ``None`` (default) is strict ring
    ownership; ``0.0`` always picks the nearest server, breaking ties
    by ring order.
    """

    name = "affinity"

    def __init__(self, latency_slack: float | None = None) -> None:
        if latency_slack is not None and latency_slack < 0:
            raise ValueError(f"latency_slack must be >= 0, got {latency_slack}")
        self.latency_slack = latency_slack
        self._ring: list[tuple[int, str]] = []
        self._members: frozenset[str] = frozenset()

    def _rebuild(self, server_ids: frozenset[str]) -> None:
        ring = [
            (_ring_hash(f"{server_id}#{node}"), server_id)
            for server_id in server_ids
            for node in range(VIRTUAL_NODES)
        ]
        ring.sort()
        self._ring = ring
        self._members = server_ids

    def _ring_order(self, index: int) -> list[str]:
        """Distinct server ids in clockwise ring order from *index*."""
        order: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._ring)):
            server_id = self._ring[(index + offset) % len(self._ring)][1]
            if server_id not in seen:
                seen.add(server_id)
                order.append(server_id)
        return order

    def route(self, key: str, servers: Sequence[ServerLoad]) -> str:
        members = frozenset(server.server_id for server in servers)
        if members != self._members:
            self._rebuild(members)
        positions = [position for position, _ in self._ring]
        index = bisect.bisect_right(positions, _ring_hash(key)) % len(self._ring)
        if self.latency_slack is None:
            return self._ring[index][1]
        rtts = {server.server_id: server.rtt for server in servers}
        nearest = min(rtts.values())
        for server_id in self._ring_order(index):
            if rtts[server_id] <= nearest + self.latency_slack:
                return server_id
        return self._ring[index][1]  # pragma: no cover - nearest always qualifies


ROUTING_POLICIES = ("affinity", "forecast", "least-loaded", "power-of-two", "round-robin")
"""Registered policy names, for CLIs and experiment sweeps."""


def make_routing_policy(
    name: str,
    seed: int = 0,
    *,
    balance_on: str = "users",
    latency_weight: float = 0.0,
    latency_slack: float | None = None,
) -> RoutingPolicy:
    """Build a routing policy by registered name.

    *balance_on* and *latency_weight* configure the load-aware policies
    (least-loaded, power-of-two); *latency_slack* configures affinity's
    proximity trade-off.  Options irrelevant to the chosen policy are
    ignored, so sweeps can pass one option set to every name.

    >>> make_routing_policy("affinity").name
    'affinity'
    """
    if name == "round-robin":
        return RoundRobinRouting()
    if name == "forecast":
        return ForecastRouting(latency_weight=latency_weight)
    if name == "least-loaded":
        return LeastLoadedRouting(balance_on=balance_on, latency_weight=latency_weight)
    if name == "power-of-two":
        return PowerOfTwoRouting(
            seed, balance_on=balance_on, latency_weight=latency_weight
        )
    if name == "affinity":
        return FingerprintAffinityRouting(latency_slack=latency_slack)
    raise ValueError(
        f"unknown routing policy {name!r}; expected one of {list(ROUTING_POLICIES)}"
    )
