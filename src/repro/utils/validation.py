"""Argument validation helpers shared across the library."""

from __future__ import annotations


def ensure_positive(value: float, name: str) -> float:
    """Return *value* if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_non_negative(value: float, name: str) -> float:
    """Return *value* if >= 0, else raise ``ValueError`` (``NaN`` included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return *value* if within [low, high], else raise ``ValueError``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value
