"""The built-in rule battery.

Importing this package registers every built-in rule with the engine's
registry (each rule module applies :func:`repro.analysis.engine.register`
at import time).  The engine imports it lazily from
:func:`~repro.analysis.engine.all_rules`, so user code never needs to.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    asyncsafety,
    determinism,
    exceptions,
    locks,
    lockorder,
)

__all__ = [
    "asyncsafety",
    "determinism",
    "exceptions",
    "locks",
    "lockorder",
]
