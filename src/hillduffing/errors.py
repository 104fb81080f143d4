"""Exception types shared across the library, and the finiteness check."""

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
