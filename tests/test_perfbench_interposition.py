"""The benchmark's span table names attributes the program still has.

``perfbench/replay.py`` records its per-layer spans by swapping each
``(owner, attribute)`` of its ``INTERPOSED`` table, read through
``vars(owner)[attribute]``, for a timing wrapper.  A renamed function, or
a module that stops importing a name, breaks only the traced benchmark
run; this test breaks first.  It reads ``perfbench/`` and changes
nothing there.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_interposed_name_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    replay = importlib.import_module("replay")
    assert replay.INTERPOSED
    missing = [
        (getattr(owner, "__name__", repr(owner)), attr)
        for owner, attr, _ in replay.INTERPOSED
        if attr not in vars(owner)
    ]
    assert missing == []
