"""Content-addressed identity for plan requests.

``plan_system`` historically cached per call-graph *object identity*,
which fails exactly in the realistic serving scenario: millions of users
running the same application submit structurally identical graphs as
distinct objects.  This module gives every (graph, config) pair a stable
name: :func:`graph_fingerprint`, a SHA-256 over the canonically sorted
functions and data flows.  It is invariant under node *insertion order*
and across processes, and sensitive to names, weights, components and
offloadability.  This is the cache key: two graphs with the same content
fingerprint produce byte-identical plans, so one may safely answer for
the other.  It is also what affinity routing routes on, so its bytes are
pinned by golden tests: a changed digest moves users between servers.
Floats are canonicalised through ``repr`` (shortest round-trip form in
CPython >= 3.1), so equal weights hash equal regardless of how they were
computed.

Both halves of the key are memoized, so the hot paths that see one app
object or one config many times hash it once:

* a call graph keeps ``(graph version, digest)`` on itself
  (:meth:`~repro.callgraph.model.FunctionCallGraph.memoized_digest`).
  Every graph mutator bumps the version after its change, and the version
  is read *before* the graph is walked, so any edit — through the call
  graph's builders or through ``.graph`` — makes the next call recompute,
  even one made during the walk;
* a config that is a frozen dataclass tree keeps its digest in a small
  memo matched by object identity, never by equality (equal configs may
  encode differently: ``1`` vs ``1.0``).  Anything else, and any config
  that raises :class:`FingerprintError`, is encoded on every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any

from repro.callgraph.model import FunctionCallGraph


class FingerprintError(TypeError):
    """Raised when a config holds an object with no canonical encoding."""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _canon_float(value: float) -> str:
    return repr(float(value))


# ----------------------------------------------------------------------
# Graph fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(call_graph: FunctionCallGraph) -> str:
    """Canonical content hash of *call_graph* (names included).

    Sorting functions by name and edges by their ordered endpoint pair
    makes the hash independent of construction order; including the
    names makes it safe as a plan-cache key (cached parts reference
    function names that exist in every graph sharing the hash).  Each
    object is hashed once per graph version
    (:meth:`~repro.callgraph.model.FunctionCallGraph.memoized_digest`).

    >>> a = FunctionCallGraph("x"); _ = a.add_function("f", 1.0)
    >>> b = FunctionCallGraph("x"); _ = b.add_function("f", 1.0)
    >>> graph_fingerprint(a) == graph_fingerprint(b)
    True
    >>> a.add_data_flow("f", a.add_function("g", 2.0).name, 3.0)
    >>> graph_fingerprint(a) == graph_fingerprint(b)
    False
    """
    return call_graph.memoized_digest(_graph_digest)


def _graph_digest(call_graph: FunctionCallGraph) -> str:
    """The walk and hash behind :func:`graph_fingerprint`, unmemoized."""
    nodes = sorted(
        (
            info.name,
            _canon_float(info.computation),
            info.component,
            "1" if info.offloadable else "0",
        )
        for info in call_graph.function_infos()
    )
    edges: list[tuple[str, str, str]] = []
    for u, v, w in call_graph.graph.edges():
        su, sv, weight = str(u), str(v), _canon_float(w)
        edges.append((su, sv, weight) if su <= sv else (sv, su, weight))
    edges.sort()
    return _digest(
        "graph-v1",
        json.dumps(nodes, separators=(",", ":")),
        json.dumps(edges, separators=(",", ":")),
    )


# ----------------------------------------------------------------------
# Config fingerprints
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """Recursively encode a config value as canonical JSON-compatible data.

    Dataclasses carry their class name (two rules with identical fields
    but different semantics must not alias); anything without a known
    canonical form raises :class:`FingerprintError` so callers can fall
    back to identity keying.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _canon_float(value)
    if isinstance(value, Enum):
        return {"__enum__": type(value).__name__, "value": value.value}
    if is_dataclass(value) and not isinstance(value, type):
        encoded = {"__class__": type(value).__name__}
        for f in fields(value):
            encoded[f.name] = _encode(getattr(value, f.name))
        return encoded
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json.dumps(_encode(item), sort_keys=True) for item in value)
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    raise FingerprintError(
        f"cannot canonically encode {type(value).__name__!r} for fingerprinting"
    )


def _frozen_tree(value: Any) -> bool:
    """Whether *value* is immutable all the way down.

    Scalars, enums, frozen dataclasses, tuples and frozensets whose own
    members are all frozen trees qualify; anything else (a list, a dict,
    a mutable dataclass, an opaque object) may change under a memo.
    """
    if value is None or isinstance(value, (int, float, str, Enum)):
        return True
    if is_dataclass(value) and not isinstance(value, type):
        return bool(getattr(type(value), "__dataclass_params__").frozen) and all(
            _frozen_tree(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, (tuple, frozenset)):
        return all(_frozen_tree(item) for item in value)
    return False


_CONFIG_MEMO_SIZE = 8
_config_memo: tuple[tuple[Any, str], ...] = ()
"""The most recent ``(config, digest)`` pairs of frozen dataclass trees,
newest first, matched by identity.  Equality would be wrong:
``PlannerConfig()`` and ``PlannerConfig(objective=ObjectiveWeights(1, 1))``
are ``==`` and hash alike, yet ``1`` and ``1.0`` encode differently, so
their digests differ.  The entries hold their configs alive, so an
identity match is never a recycled object.  A hit returns exactly what
encoding would, so the memo changes no result.  The tuple is replaced
whole, never mutated, so concurrent readers always see a consistent
memo; two threads storing at once may drop an entry, which costs one
recompute."""


def config_fingerprint(config: Any) -> str:
    """Canonical hash of a planner configuration (any dataclass tree).

    Raises :class:`FingerprintError` when the config embeds an object
    with no canonical encoding (e.g. a bare callable) — callers are
    expected to plan without a cache key in that case.  Such a
    config is never memoized, so it raises on every call.  A frozen
    dataclass tree cannot change, so its digest is memoized per object.
    """
    global _config_memo
    for seen, digest in _config_memo:
        if seen is config:
            return digest
    digest = _digest("config-v1", json.dumps(_encode(config), sort_keys=True))
    if is_dataclass(config) and _frozen_tree(config):
        _config_memo = ((config, digest), *_config_memo[: _CONFIG_MEMO_SIZE - 1])
    return digest


def request_fingerprint(
    call_graph: FunctionCallGraph,
    config: Any = None,
    strategy_name: str = "",
) -> str:
    """The plan-cache key: graph content + config + cut strategy name.

    The cut strategy itself is a callable and cannot be hashed; its
    registered name stands in for it, so two strategies sharing a name
    must behave identically (the ``make_planner`` registry guarantees
    this for the built-ins).
    """
    return _digest(
        "request-v1",
        graph_fingerprint(call_graph),
        config_fingerprint(config) if config is not None else "-",
        strategy_name,
    )
