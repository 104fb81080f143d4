"""Exception types shared across the library, and the argument checks that raise
them, each message led by the argument's name: ``require_finite`` and
``require_in`` (an interval) for real values, ``require_count`` for integer ones."""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrationFailure(RuntimeError):
    """The adaptive ODE integrator exceeded its step cap, underflowed or
    started from a non-finite derivative."""


class BracketNotFound(RuntimeError):
    """No trace-level crossing was detected inside the seeded window."""


def require_finite(**values: float) -> None:
    """Raise a ``DomainError`` naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value, minimum: int) -> int:
    """``int(value)``, or a ``DomainError`` naming ``name`` unless ``value`` is an integer
    from ``minimum`` to 2^53, so that ``float`` of it is exact (NaN, inf and fractions fail)."""
    if value % 1 != 0 or not minimum <= value <= 2**53:  # the first also true for nan and inf
        raise DomainError(f"{name} must be an integer >= {minimum} and <= 2^53, got {value!r}")
    return int(value)


def require_in(name: str, value, lo: float, hi: float, ends: str = "()") -> float:
    """``float(value)``, or a ``DomainError`` naming ``name`` unless ``value`` lies in the
    interval from ``lo`` to ``hi``; ``ends``, one of ``"()"``, ``"[)"``, ``"(]"`` and ``"[]"``,
    says which endpoints belong to it (NaN lies in none)."""
    if lo < value < hi or (value == lo and ends[0] == "[") or (value == hi and ends[1] == "]"):
        return float(value)
    raise DomainError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
