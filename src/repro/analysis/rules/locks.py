"""Lock-discipline rules: declared locks must be honoured everywhere.

The serving stack guards shared mutable state with per-object locks
(``self._lock``, ``self._invocation_lock``, ``self._cond``, ...).  The
contract these rules enforce is the one the code already follows:

* an attribute that is *ever* assigned inside a ``with self.<lock>:``
  block is lock-guarded state, and every other assignment to it (except
  construction in ``__init__``) must also hold a lock;
* a class that nests two different locks must always nest them in the
  same order — an ``A then B`` block in one method and ``B then A`` in
  another is a deadlock waiting for the right interleaving.

The analysis is lexical (per-class, per-``with``-block): helper methods
documented as "caller must hold the lock" and ``.acquire()``/
``.release()`` pairs are invisible to it and need a suppression with the
reason written down.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.engine import ModuleUnit, Rule, register
from repro.analysis.findings import Finding

_LOCK_ATTR = re.compile(r"lock|cond|mutex|sem", re.IGNORECASE)


def _held_locks(item: ast.withitem) -> str | None:
    """The ``self.<attr>`` lock a with-item acquires, if any."""
    expr = item.context_expr
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and _LOCK_ATTR.search(expr.attr)
    ):
        return expr.attr
    return None


@dataclass
class _Write:
    """One ``self.<attr> = ...`` observed in a class body."""

    attr: str
    line: int
    method: str
    locks_held: tuple[str, ...]


class _ClassScanner:
    """Walks one class, recording attribute writes and lock nestings."""

    def __init__(self) -> None:
        self.writes: list[_Write] = []
        self.orderings: dict[tuple[str, str], int] = {}

    def scan_class(self, class_node: ast.ClassDef) -> None:
        for node in class_node.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_block(node.body, node.name, ())

    def _scan_block(
        self, body: list[ast.stmt], method: str, locks: tuple[str, ...]
    ) -> None:
        for node in body:
            self._scan_statement(node, method, locks)

    def _scan_statement(
        self, node: ast.stmt, method: str, locks: tuple[str, ...]
    ) -> None:
        if isinstance(node, ast.With):
            acquired = [
                attr for item in node.items if (attr := _held_locks(item)) is not None
            ]
            for inner in acquired:
                for outer in locks:
                    if outer != inner:
                        self.orderings.setdefault((outer, inner), node.lineno)
            self._scan_block(node.body, method, locks + tuple(acquired))
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.writes.append(
                        _Write(target.attr, node.lineno, method, locks)
                    )
            return
        if isinstance(node, ast.ClassDef):
            return  # a nested class is its own locking domain
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure defined here may run later on another thread;
            # conservatively treat its writes as happening without the
            # enclosing lock held.
            self._scan_block(node.body, method, ())
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._scan_statement(child, method, locks)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                self._scan_block(child.body, method, locks)


@register
class UnguardedAttributeRule(Rule):
    """Lock-guarded attributes must be written under their lock."""

    rule_id = "locks/unguarded-attribute"
    description = (
        "an attribute assigned under a with-lock block anywhere in a class "
        "must be assigned under a lock everywhere (except __init__)"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        findings: list[Finding] = []
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            scanner = _ClassScanner()
            scanner.scan_class(class_node)
            guarded: dict[str, str] = {}
            for write in scanner.writes:
                if write.locks_held and write.attr not in guarded:
                    guarded[write.attr] = write.locks_held[-1]
            for write in scanner.writes:
                if (
                    write.attr in guarded
                    and not write.locks_held
                    and write.method != "__init__"
                ):
                    lock = guarded[write.attr]
                    findings.append(
                        module.finding(
                            self.rule_id,
                            write.line,
                            f"{class_node.name}.{write.attr} is assigned under "
                            f"self.{lock} elsewhere but written here without "
                            "any lock held",
                            hint=f"wrap the write in `with self.{lock}:` "
                            "(construction belongs in __init__)",
                        )
                    )
        return findings


@register
class LockOrderRule(Rule):
    """Nested locks must nest in one consistent order per class."""

    rule_id = "locks/lock-order"
    description = (
        "a class acquiring two locks in both orders can deadlock; pick one "
        "order and keep it"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        findings: list[Finding] = []
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            scanner = _ClassScanner()
            scanner.scan_class(class_node)
            reported: set[frozenset[str]] = set()
            for (outer, inner), line in sorted(
                scanner.orderings.items(), key=lambda item: item[1]
            ):
                pair = frozenset((outer, inner))
                if (inner, outer) in scanner.orderings and pair not in reported:
                    reported.add(pair)
                    other_line = scanner.orderings[(inner, outer)]
                    findings.append(
                        module.finding(
                            self.rule_id,
                            max(line, other_line),
                            f"{class_node.name} acquires self.{outer} and "
                            f"self.{inner} in both orders (lines {line} and "
                            f"{other_line}); two threads can deadlock",
                            hint="pick one acquisition order and restructure "
                            "the other block to follow it",
                        )
                    )
        return findings
