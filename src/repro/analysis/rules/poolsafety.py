"""Process-pool safety: only rebuildable payloads cross the boundary.

A process pool is safe when nothing stateful crosses into its workers:
each worker rebuilds what it needs (a planner from a ``(strategy name,
config)`` pair via the registry, say) and only plain picklable data
travels as arguments.  A lambda, closure, or bound method handed to a
pool drags its enclosing environment along — locks in undefined states,
open files, live planner instances — and either fails to pickle or,
worse under ``fork``, silently shares what must not be shared.

This rule checks every submission to a pool-like object (a receiver
whose name contains ``pool``) in modules that use ``multiprocessing`` or
``concurrent.futures.ProcessPoolExecutor``: the submitted callable (and
any ``initializer=``) must be a module-level name, which pickles by
reference and is rebuilt cleanly on the other side.  Thread pools are
exempt — modules that never import a process-pool API are skipped.
Planning runs on threads; the rule guards any process pool added
later.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleUnit, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import module_level_callables

_POOL_METHODS = {
    "apply",
    "apply_async",
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "submit",
}

_POOL_CONSTRUCTORS = {"Pool", "ProcessPoolExecutor"}


def _uses_process_pools(tree: ast.Module) -> bool:
    """Whether the module imports a process-pool API at all."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".", 1)[0] == "multiprocessing"
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".", 1)[0] == "multiprocessing":
                return True
            if node.module.startswith("concurrent.futures") and any(
                alias.name == "ProcessPoolExecutor" for alias in node.names
            ):
                return True
    return False


def _poolish_receiver(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute):
        return "pool" in expr.attr.lower()
    if isinstance(expr, ast.Name):
        return "pool" in expr.id.lower()
    return False


@register
class PoolSubmissionRule(Rule):
    """Callables submitted to process pools must be module-level."""

    rule_id = "poolsafety/nonportable-callable"
    description = (
        "process pools may only receive module-level functions — lambdas, "
        "closures and bound methods drag locks/files/planners across the fork"
    )

    def check(self, module: ModuleUnit) -> list[Finding]:
        if not _uses_process_pools(module.tree):
            return []
        portable = module_level_callables(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _POOL_METHODS
                and _poolish_receiver(func.value)
                and node.args
            ):
                findings.extend(
                    self._check_callable(
                        module, node.args[0], f".{func.attr}()", portable
                    )
                )
            constructor = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if constructor in _POOL_CONSTRUCTORS:
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        findings.extend(
                            self._check_callable(
                                module, keyword.value, "initializer=", portable
                            )
                        )
        return findings

    def _check_callable(
        self,
        module: ModuleUnit,
        callable_node: ast.expr,
        where: str,
        portable: set[str],
    ) -> list[Finding]:
        if isinstance(callable_node, ast.Lambda):
            return [
                module.finding(
                    self.rule_id,
                    callable_node,
                    f"lambda passed to a process pool via {where}: its "
                    "closure (and anything it captures) cannot cross the "
                    "process boundary",
                    hint="hoist the body to a module-level function taking "
                    "only (strategy, config)-rebuildable arguments",
                )
            ]
        if isinstance(callable_node, ast.Attribute):
            return [
                module.finding(
                    self.rule_id,
                    callable_node,
                    f"bound method passed to a process pool via {where}: it "
                    "pickles its whole instance — locks, open files, planner "
                    "state — into the worker",
                    hint="use a module-level function that rebuilds what it "
                    "needs from (strategy, config)",
                )
            ]
        if isinstance(callable_node, ast.Name):
            if callable_node.id in portable:
                return []
            return [
                module.finding(
                    self.rule_id,
                    callable_node,
                    f"{callable_node.id!r} passed to a process pool via "
                    f"{where} is not a module-level function in this module; "
                    "it cannot be proven to pickle by reference",
                    hint="pass a module-level function (or suppress with the "
                    "reason it is known-portable)",
                )
            ]
        return [
            module.finding(
                self.rule_id,
                callable_node,
                f"dynamic callable expression passed to a process pool via "
                f"{where} cannot be verified portable",
                hint="pass a module-level function",
            )
        ]
