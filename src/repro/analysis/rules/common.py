"""Shared AST plumbing for the rule battery.

The rules need one recurring answer: *what fully-qualified thing does
this expression refer to* (through import aliases).  It is resolved
lexically — no execution, no cross-module resolution — which is exactly
the precision this battery promises: a name that cannot be proven safe
is reported, with a suppression as the escape hatch.
"""

from __future__ import annotations

import ast


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted names they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    time`` maps ``time -> time.time``; ``import multiprocessing.pool``
    maps ``multiprocessing -> multiprocessing``.  Relative imports are
    skipped — they can never name the stdlib modules the rules watch.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Fully-qualified dotted form of a Name/Attribute chain, or None.

    ``np.random.rand`` with ``np -> numpy`` resolves to
    ``numpy.random.rand``; anything rooted in a call or subscript
    resolves to ``None`` (not a static reference).
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = aliases.get(current.id, current.id)
    parts.append(base)
    return ".".join(reversed(parts))
