"""Closed-form solutions of the cubic (hardening) Duffing oscillator.

The unscaled equation is y'' + y + y^3 = 0 with y(0) = delta, y'(0) = 0.
The scaled family divides both restoring terms by a positive frequency
ratio ``omega``; omega = 1 recovers the unscaled equation.  Solutions,
velocities, periods and energies are all evaluated through the Jacobi
elliptic cosine, never by time stepping.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import elliptic
from .errors import DomainError, require_in

_DELTA_MAX = math.sqrt(sys.float_info.max / 2.0)  # the largest delta with 2 (1 + delta^2) finite


def valid_amplitude(delta):
    """Whether ``DuffingParams`` accepts delta (nonzero, 2 (1 + delta^2) finite), elementwise."""
    return (delta != 0.0) & (abs(delta) <= _DELTA_MAX)


def _modulus(delta):
    """``DuffingParams(delta).modulus`` of a delta that ``valid_amplitude`` accepts."""
    return abs(delta) / math.sqrt(2.0 * (1.0 + delta * delta))


@dataclass(frozen=True)
class DuffingParams:
    """Initial semi-amplitude and frequency-ratio scale of a Duffing solution.

    ``delta`` may be negative (the solution keeps the sign; period and
    energy are even in delta).  ``omega`` must be positive; it equals 1 for
    the unscaled oscillator and n^2/m^2 for the two-mode beam reduction.
    """

    delta: float
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not valid_amplitude(self.delta):
            raise DomainError(f"delta must be nonzero, 2 (1 + delta^2) finite, got {self.delta!r}")
        require_in("omega", self.omega, 0.0, math.inf)

    @property
    def modulus(self) -> float:
        """Elliptic modulus |delta| / sqrt(2 (1 + delta^2)), always < 1/sqrt(2)."""
        return _modulus(self.delta)

    @property
    def argument_rate(self) -> float:
        """Rate sqrt((1 + delta^2) / omega) multiplying time in the cn argument."""
        return math.sqrt((1.0 + self.delta * self.delta) / self.omega)


def duffing_solution(params: DuffingParams, t: float) -> float:
    """Solution value delta * cn(t * sqrt((1 + delta^2)/omega), k)."""
    sn, cn, dn = elliptic.jacobi(params.argument_rate * t, params.modulus)
    return params.delta * cn


def duffing_velocity(params: DuffingParams, t: float) -> float:
    """Time derivative of the solution, evaluated analytically.

    Differentiating the cn form gives -delta * r * sn * dn at the scaled
    argument, with r the argument rate; this satisfies the energy relation
    2 v^2 = (1/omega)(2 + delta^2 + y^2)(delta^2 - y^2) identically.
    """
    r = params.argument_rate
    sn, cn, dn = elliptic.jacobi(r * t, params.modulus)
    # + 0.0 normalizes the signed zero at the turning points
    return -params.delta * r * sn * dn + 0.0


def period(params: DuffingParams) -> float:
    """Least period 4 sqrt(omega / (1 + delta^2)) K(k) of the solution.

    Strictly decreasing in |delta|, with limit 2 pi sqrt(omega) as
    delta -> 0.
    """
    d2 = params.delta * params.delta
    return 4.0 * math.sqrt(params.omega / (1.0 + d2)) * elliptic.complete_K(params.modulus)


def energy(params: DuffingParams) -> float:
    """Conserved energy delta^2/2 + delta^4/4 of the unscaled oscillator."""
    if params.omega != 1.0:
        raise DomainError("energy is defined for the unscaled oscillator (omega = 1)")
    d2 = params.delta * params.delta
    return 0.5 * d2 + 0.25 * d2 * d2
