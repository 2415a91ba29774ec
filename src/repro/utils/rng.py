"""Deterministic randomness helpers.

Every stochastic component in the library (workload generators, label
propagation tie-breaking, baseline heuristics) draws randomness through a
:class:`RandomSource` so that experiments are exactly reproducible from a
single integer seed.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence
from typing import TypeVar

T = TypeVar("T")

_DEFAULT_SEED = 0x5EED


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from *base_seed* and a sequence of labels.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 rather than ``hash``), so parallel sub-tasks can be given
    independent yet reproducible streams.

    >>> derive_seed(7, "netgen", 250) == derive_seed(7, "netgen", 250)
    True
    >>> derive_seed(7, "netgen", 250) != derive_seed(7, "netgen", 500)
    True
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class RandomSource:
    """A seeded pseudo-random stream with convenience helpers.

    Wraps :class:`random.Random` so that callers never touch the global
    random state. ``spawn`` creates an independent child stream keyed by
    labels, so each consumer (a generator, a channel draw, a game round)
    gets a reproducible stream that does not depend on call order.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.seed = _DEFAULT_SEED if seed is None else int(seed)
        self._rng = random.Random(self.seed)

    def spawn(self, *labels: object) -> "RandomSource":
        """Return an independent child stream keyed by *labels*."""
        return RandomSource(derive_seed(self.seed, *labels))

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Return a uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of *items*."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Return *count* distinct elements sampled from *items*."""
        return self._rng.sample(items, count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Shuffle *items* in place and return it for chaining."""
        self._rng.shuffle(items)
        return items

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """Return a new shuffled list built from *items*."""
        copied = list(items)
        self._rng.shuffle(copied)
        return copied

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed sample with the given rate."""
        return self._rng.expovariate(rate)

    def gauss(self, mean: float, sigma: float) -> float:
        """Return a normally distributed sample."""
        return self._rng.gauss(mean, sigma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self.seed})"
