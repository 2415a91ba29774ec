"""The analysis engine: module model, rule registry, and the driver.

Rules come in two shapes.  *Module rules* are small classes over one
parsed module (:class:`ModuleUnit`): they receive the AST plus the raw
source lines and return :class:`~repro.analysis.findings.Finding`
objects.  *Program rules* (:class:`ProgramRule`) instead receive the
whole-program graph built by :mod:`repro.analysis.program` — symbol
table, call edges, lock acquisitions — and can report cross-module
facts (a deadlock cycle spanning three files, a blocking call four
frames below an ``async def``).  The engine owns everything around
that — file discovery, parsing, graph construction, suppression
matching (:mod:`repro.analysis.suppressions`), the suppression audit,
baseline filtering, and stable ordering of results — so each rule stays
a pure check.

Registration is by decorator::

    @register
    class MyRule(Rule):
        rule_id = "family/rule-name"
        description = "one line for --list-rules"

        def check(self, module: ModuleUnit) -> list[Finding]: ...

    @register
    class MyProgramRule(ProgramRule):
        rule_id = "family/other-rule"
        description = "one line for --list-rules"

        def check_program(self, program: ProgramGraph) -> list[Finding]: ...

The built-in battery lives in :mod:`repro.analysis.rules`; importing it
(which :func:`all_rules` does lazily) populates the registry.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from repro.analysis.findings import Finding
from repro.analysis.suppressions import (
    Suppression,
    audit_suppressions,
    collect_suppressions,
)

if TYPE_CHECKING:
    from repro.analysis.program import ProgramGraph


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for *path*.

    Anchors at the last path component named ``repro`` so the same
    module resolves identically whether scanned as ``src/repro/...``,
    an installed tree, or a test fixture mirroring the layout.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    return parts[-1] if parts else ""


@dataclass
class ModuleUnit:
    """One parsed module plus everything a rule may want to know."""

    path: str
    module_name: str
    source: str
    lines: list[str]
    tree: ast.Module

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives under any of the dotted *packages*."""
        return any(
            self.module_name == package or self.module_name.startswith(package + ".")
            for package in packages
        )

    def finding(
        self,
        rule_id: str,
        node: ast.AST | int,
        message: str,
        hint: str = "",
    ) -> Finding:
        """Build a finding anchored to *node* (or an explicit line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            path=self.path, line=line, rule_id=rule_id, message=message, hint=hint
        )

    def comment_text_near(self, start_line: int, end_line: int) -> str:
        """Concatenated comment text on lines ``[start_line, end_line]``.

        Lines are 1-indexed and clamped; used by rules that require a
        written rationale next to a construct (e.g. broad ``except``).
        The scan is a lexical heuristic — a ``#`` inside a string
        literal can count — which errs on the permissive side.
        """
        pieces: list[str] = []
        for index in range(max(0, start_line - 1), min(len(self.lines), end_line)):
            line = self.lines[index]
            if "#" in line:
                pieces.append(line.split("#", 1)[1].strip("# ").strip())
        return " ".join(piece for piece in pieces if piece)


class Rule(abc.ABC):
    """One named invariant checked against a :class:`ModuleUnit`."""

    rule_id: ClassVar[str] = ""
    description: ClassVar[str] = ""

    @abc.abstractmethod
    def check(self, module: ModuleUnit) -> list[Finding]:
        """Return every violation of this rule in *module*."""


class ProgramRule(Rule):
    """A rule over the whole-program graph instead of one module.

    Program rules see every scanned module at once — symbol table, call
    edges, lock acquisitions — so they can chase facts across module
    boundaries.  The per-module :meth:`check` is a no-op; the engine
    calls :meth:`check_program` exactly once per run, after all modules
    parse, and matches the returned findings against each file's
    suppressions like any other finding.
    """

    def check(self, module: ModuleUnit) -> list[Finding]:
        return []

    @abc.abstractmethod
    def check_program(self, program: ProgramGraph) -> list[Finding]:
        """Return every violation of this rule across *program*."""


_REGISTRY: dict[str, Rule] = {}
_BUILTINS_LOADED = False


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to the global registry."""
    rule = rule_class()
    if not rule.rule_id or "/" not in rule.rule_id:
        raise ValueError(
            f"rule {rule_class.__name__} needs a 'family/name' rule_id, "
            f"got {rule.rule_id!r}"
        )
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return rule_class


def _ensure_builtin_rules() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        import repro.analysis.rules  # noqa: F401  (registers on import)

        _BUILTINS_LOADED = True


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _ensure_builtin_rules()
    return [rule for _, rule in sorted(_REGISTRY.items())]


def select_rules(selectors: Sequence[str]) -> list[Rule]:
    """Rules matching *selectors* (full ids or family prefixes).

    Raises :class:`ValueError` on a selector that matches nothing, so
    CLI typos fail loudly instead of silently checking nothing.
    """
    chosen: list[Rule] = []
    for selector in selectors:
        matched = [
            rule
            for rule in all_rules()
            if rule.rule_id == selector or rule.rule_id.startswith(selector + "/")
        ]
        if not matched:
            known = sorted({rule.rule_id for rule in all_rules()})
            raise ValueError(f"unknown rule selector {selector!r}; known rules: {known}")
        chosen.extend(rule for rule in matched if rule not in chosen)
    return chosen


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressions: list[Suppression] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    """Findings acknowledged by the ``--baseline`` file: excluded from
    :attr:`findings` (and from ``--strict`` failure) but still reported
    in the artifact so the remaining debt stays visible."""

    @property
    def suppressed_count(self) -> int:
        return sum(1 for suppression in self.suppressions if suppression.used)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    def to_dict(self) -> dict[str, object]:
        """The JSON artifact schema (uploaded by CI).

        Version history: 2 added per-finding ``severity`` and the
        ``baselined`` list.
        """
        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "findings": [finding.to_dict() for finding in self.findings],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "suppressions": [
                {
                    "path": suppression.path,
                    "line": suppression.line,
                    "rule": suppression.rule_id,
                    "reason": suppression.reason,
                    "used": suppression.used,
                }
                for suppression in self.suppressions
            ],
        }


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files and directories into a sorted, de-duplicated file list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                seen.setdefault(file, None)
        else:
            seen.setdefault(path, None)
    return list(seen)


def _parse_unit(
    source: str, path: str, module_name: str | None = None
) -> ModuleUnit | Finding:
    """Parse one module; a syntax error becomes a finding, not a crash."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            rule_id="analysis/parse-error",
            message=f"file does not parse: {exc.msg}",
            suppressible=False,
        )
    return ModuleUnit(
        path=path,
        module_name=(
            module_name if module_name is not None else module_name_for(Path(path))
        ),
        source=source,
        lines=source.splitlines(),
        tree=tree,
    )


def _split_rules(rules: Sequence[Rule]) -> tuple[list[Rule], list[ProgramRule]]:
    module_rules = [rule for rule in rules if not isinstance(rule, ProgramRule)]
    program_rules = [rule for rule in rules if isinstance(rule, ProgramRule)]
    return module_rules, program_rules


def _analyze_units(
    units: Sequence[ModuleUnit | Finding],
    rules: Sequence[Rule],
) -> tuple[list[Finding], list[Suppression]]:
    """The full pipeline over already-parsed *units*.

    Stages: per-module rules, then program rules over the graph of
    every module that parsed, then suppression matching and the
    suppression audit.  Findings are sorted at the end.
    """
    module_rules, program_rules = _split_rules(rules)
    modules = [unit for unit in units if isinstance(unit, ModuleUnit)]
    raw: list[Finding] = [unit for unit in units if isinstance(unit, Finding)]
    for module in modules:
        for rule in module_rules:
            raw.extend(rule.check(module))

    if program_rules and modules:
        # Imported here, not at module top: program.py imports
        # ModuleUnit from this module.
        from repro.analysis.program import ProgramGraph

        program = ProgramGraph.build(modules)
        for program_rule in program_rules:
            raw.extend(program_rule.check_program(program))

    suppressions: list[Suppression] = []
    by_path: dict[str, list[Suppression]] = {}
    for module in modules:
        module_suppressions = collect_suppressions(module.path, module.source)
        suppressions.extend(module_suppressions)
        by_path[module.path] = module_suppressions

    kept: list[Finding] = []
    for finding in raw:
        match = next(
            (
                suppression
                for suppression in by_path.get(finding.path, [])
                if suppression.matches(finding)
                and suppression.covers_line(finding.line)
            ),
            None,
        )
        if match is not None and finding.suppressible:
            match.used = True
            continue
        kept.append(finding)
    kept.extend(audit_suppressions(suppressions))
    kept.sort(key=lambda finding: finding.sort_key)
    return kept, suppressions


def analyze_source(
    source: str,
    path: str = "<memory>",
    rules: Sequence[Rule] | None = None,
    module_name: str | None = None,
) -> list[Finding]:
    """Analyze one in-memory module (the unit-test entry point).

    Program rules still run — over the one-module program — so fixtures
    exercising intra-module lock cycles or async-safety work unchanged.
    """
    active = list(rules) if rules is not None else all_rules()
    findings, _ = _analyze_units([_parse_unit(source, path, module_name)], active)
    return findings


def analyze_sources(
    sources: Mapping[str, str],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyze several in-memory modules as one program.

    *sources* maps dotted module names to source text; each module gets
    a synthetic path derived from its name.  This is the test entry
    point for cross-module facts — a lock cycle whose two halves live
    in different files, an async handler whose blocking call is three
    modules away.
    """
    active = list(rules) if rules is not None else all_rules()
    units = [
        _parse_unit(source, module_name.replace(".", "/") + ".py", module_name)
        for module_name, source in sorted(sources.items())
    ]
    findings, _ = _analyze_units(units, active)
    return findings


def analyze_paths(
    paths: Sequence[Path | str],
    rules: Sequence[Rule] | None = None,
    baseline: set[str] | None = None,
) -> AnalysisReport:
    """Analyze every Python file under *paths* and return the report.

    *baseline* is a set of finding fingerprints (see
    :mod:`repro.analysis.baseline`) to divert into
    :attr:`AnalysisReport.baselined`.
    """
    active = list(rules) if rules is not None else all_rules()
    files = iter_python_files(Path(path) for path in paths)
    units = [_parse_unit(file.read_text(encoding="utf-8"), str(file)) for file in files]
    findings, suppressions = _analyze_units(units, active)

    report = AnalysisReport(files_scanned=len(files), suppressions=suppressions)
    if baseline:
        from repro.analysis.baseline import finding_fingerprint

        for finding in findings:
            if finding_fingerprint(finding) in baseline:
                report.baselined.append(finding)
            else:
                report.findings.append(finding)
    else:
        report.findings = findings
    return report
