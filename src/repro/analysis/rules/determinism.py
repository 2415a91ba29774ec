"""Determinism rules: plans must be pure functions of their inputs.

The serving stack's correctness rests on one invariant: a plan is a
deterministic function of the request's content fingerprint.  The plan
cache answers one user's request with another user's plan; every
worker thread and every fleet node must compute the same answer from
the same inputs.  These rules police the planning packages
(``repro.core``, ``repro.compression``, ``repro.spectral``,
``repro.mec``) and the forecasting package
(``repro.forecast``, whose predictions drive proactive placement and
must replay identically from a recorded trace) for the three ways that
invariant historically breaks:

* randomness drawn from global, unseeded generators;
* wall-clock values (only *measurement* clocks — ``perf_counter``,
  ``monotonic``, ``process_time`` — are allowed, because they feed
  timing telemetry, never identity or decisions);
* ``id()``-derived values, whose reuse after garbage collection can
  alias two different graphs onto one cache entry.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleUnit, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import dotted_name, import_aliases

DETERMINISTIC_PACKAGES = (
    "repro.core",
    "repro.compression",
    "repro.spectral",
    "repro.mec",
    "repro.forecast",
    "repro.mobility",
)
"""Packages whose outputs feed caches, fingerprints, or plan decisions.
``repro.mec`` includes the shared-channel contention model
(``repro.mec.channel``) and the best-response game (``repro.mec.game``):
channel quality draws and best-response visit orders must replay
identically for a given seed."""

_SEEDED_NUMPY_ENTRYPOINTS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}

_MEASUREMENT_CLOCKS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _scoped(module: ModuleUnit) -> bool:
    return module.in_package(*DETERMINISTIC_PACKAGES)


@register
class UnseededRandomRule(Rule):
    """No global or unseeded RNGs in the planning packages."""

    rule_id = "determinism/unseeded-random"
    description = (
        "planning packages must draw randomness from explicitly seeded "
        "generators (repro.utils.rng.RandomSource, numpy default_rng(seed))"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        if not _scoped(module):
            return []
        aliases = import_aliases(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name is None:
                continue
            unseeded = not node.args and not node.keywords
            if name.startswith("random."):
                tail = name.split(".", 1)[1]
                if tail == "Random":
                    if unseeded:
                        findings.append(
                            module.finding(
                                self.rule_id,
                                node,
                                "random.Random() without a seed is "
                                "nondeterministic across runs",
                                hint="pass an explicit seed, or use "
                                "repro.utils.rng.RandomSource",
                            )
                        )
                elif tail == "SystemRandom":
                    findings.append(
                        module.finding(
                            self.rule_id,
                            node,
                            "random.SystemRandom draws OS entropy and can "
                            "never be replayed",
                            hint="use repro.utils.rng.RandomSource with an "
                            "explicit seed",
                        )
                    )
                else:
                    findings.append(
                        module.finding(
                            self.rule_id,
                            node,
                            f"{name}() uses the process-global RNG, whose "
                            "state depends on everything run before it",
                            hint="use repro.utils.rng.RandomSource with an "
                            "explicit seed",
                        )
                    )
            elif name.startswith("numpy.random."):
                tail = name[len("numpy.random.") :]
                if tail == "default_rng":
                    if unseeded:
                        findings.append(
                            module.finding(
                                self.rule_id,
                                node,
                                "numpy.random.default_rng() without a seed is "
                                "nondeterministic across runs",
                                hint="pass an explicit seed",
                            )
                        )
                elif tail.split(".", 1)[0] not in _SEEDED_NUMPY_ENTRYPOINTS:
                    findings.append(
                        module.finding(
                            self.rule_id,
                            node,
                            f"{name}() is numpy's legacy global-state RNG API",
                            hint="use numpy.random.default_rng(seed)",
                        )
                    )
        return findings


@register
class WallClockRule(Rule):
    """No wall-clock reads in the planning packages."""

    rule_id = "determinism/wall-clock"
    description = (
        "planning packages may time work (perf_counter/monotonic) but never "
        "read the wall clock — wall time must not feed caches or decisions"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        if not _scoped(module):
            return []
        aliases = import_aliases(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WALL_CLOCKS and name not in _MEASUREMENT_CLOCKS:
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        f"{name}() reads the wall clock; two nodes planning "
                        "the same request would disagree",
                        hint="use time.perf_counter() for durations; derive "
                        "identity from content fingerprints, never time",
                    )
                )
        return findings


@register
class IdKeyedStateRule(Rule):
    """No ``id()``-derived values in the planning packages."""

    rule_id = "determinism/id-keyed-state"
    description = (
        "planning packages must not derive cache keys or decisions from "
        "id() — ids are reused after GC and differ across processes"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        if not _scoped(module):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                findings.append(
                    module.finding(
                        self.rule_id,
                        node,
                        "id() is process-lifetime state: CPython reuses ids "
                        "after garbage collection, so an id-keyed cache can "
                        "serve one graph's plan for a different graph",
                        hint="key by content fingerprint "
                        "(repro.service.fingerprint.request_fingerprint)",
                    )
                )
        return findings
