"""Repo-aware static analysis for the reproduction stack.

``repro.analysis`` enforces the invariants the serving and planning
layers rely on but Python cannot express: determinism of the planning
packages, lock discipline in the shared-state classes, exception
hygiene, and — via the whole-program graph in
:mod:`repro.analysis.program` — cross-module lock-order cycles and
event-loop async safety.  The static battery runs as ``repro-lint`` (or
``python -m repro lint``); the dynamic half,
:mod:`repro.analysis.runtime`, instruments real locks at test time.
See DESIGN.md for the rule catalogue and the suppression policy.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisReport,
    ModuleUnit,
    ProgramRule,
    Rule,
    all_rules,
    analyze_paths,
    analyze_source,
    analyze_sources,
    register,
    select_rules,
)
from repro.analysis.findings import Finding
from repro.analysis.suppressions import Suppression

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleUnit",
    "ProgramRule",
    "Rule",
    "Suppression",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "register",
    "select_rules",
]
