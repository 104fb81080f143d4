"""Complete elliptic integral of the first kind and Jacobi elliptic functions.

Everything here is computed from scratch with one run of the
arithmetic-geometric mean of 1 and k' per modulus (DLMF 19.8(i), 22.20(ii)):
``complete_K`` is its limit, and the Jacobi triple (sn, cn, dn) follows
from its descent by Gauss' backward phase recursion.  Only real arguments
and moduli 0 <= k < 1 are supported; the rest of the library never needs k
above 1/sqrt(2).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, require_finite, require_in

_EPS = 2.220446049250313e-16
_MAX_AGM_ITER = 64


class JacobiTriple(NamedTuple):
    """Values of the three Jacobi elliptic functions at one point.

    Satisfies sn^2 + cn^2 = 1 and dn^2 - k^2 cn^2 = 1 - k^2, with
    dn >= sqrt(1 - k^2) > 0.
    """

    sn: float
    cn: float
    dn: float


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 agm(1, k')).

    The AGM converges quadratically; K is read off at the first step with
    |a - b| <= 4 eps a (about five iterations for the moduli used here).
    Relative error is at the rounding level, far inside the 1e-13 contract.
    """
    return _descent(require_in("k", k, 0.0, 1.0, "[)"))[0]


@lru_cache(maxsize=4096)
def _descent(k: float) -> tuple[float, float, tuple[float, ...]]:
    """One AGM run of (a, b, c) = (1, k', k) for 0 <= k < 1: K(k), 2^n a_n and
    c_i / a_i, i = n..1, with n the first step where c_n <= eps a_n.  K comes
    no later, as c_n = (a_{n-1} - b_{n-1}) / 2."""
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    quarter, ratios = None, []
    while True:
        if quarter is None and abs(a - b) <= 4.0 * _EPS * a:
            quarter = math.pi / (2.0 * a)
        if abs(c) <= _EPS * a:
            return quarter, (2.0 ** len(ratios)) * a, tuple(reversed(ratios))
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
        if len(ratios) >= _MAX_AGM_ITER:
            raise DomainError(f"AGM descent did not converge for k={k!r}")


def jacobi(u: float, k: float) -> JacobiTriple:
    """Jacobi elliptic functions sn(u, k), cn(u, k), dn(u, k).

    Uses the descending AGM scheme: run the AGM until the deviation scale
    c_n vanishes, seed the phase with 2^n a_n u, then recover the amplitude
    by the backward recursion phi_{n-1} = (phi_n + asin((c_n/a_n) sin
    phi_n)) / 2.  The argument is first reduced modulo 4 K(k) so long
    evaluations do not lose phase accuracy.  The descent is cached per k.

    Parameters
    ----------
    u : real argument (finite).
    k : modulus, 0 <= k < 1.

    Returns
    -------
    JacobiTriple
        Componentwise accurate to ~1e-12 for |u| <= 100, k <= 0.71.
    """
    k = require_in("k", k, 0.0, 1.0, "[)")
    u = float(u)
    require_finite(u=u)
    if k == 0.0:
        # degenerate Landen descent; trigonometric limit is exact
        return JacobiTriple(math.sin(u), math.cos(u), 1.0)

    quarter, scale, ratios = _descent(k)
    phi = scale * math.fmod(u, 4.0 * quarter)
    for ratio in ratios:
        # rounding can push the ratio marginally outside [-1, 1]
        s = max(-1.0, min(1.0, ratio * math.sin(phi)))
        phi = 0.5 * (phi + math.asin(s))

    sn = math.sin(phi)
    cn = math.cos(phi)
    # k^2 <= 1/2 on the Duffing range, so this form is well conditioned and
    # keeps both Jacobi identities exact to rounding
    dn = math.sqrt(1.0 - (k * sn) * (k * sn))
    return JacobiTriple(sn, cn, dn)


def sigma_constant() -> float:
    """The lemniscatic constant K(1/sqrt(2)) / sqrt(2) ~ 1.31102877714606.

    Equals the arc-type integrals of 1/sqrt(1 - t^4) over (0, 1) and of
    1/sqrt(1 + sin^2 a) over (0, pi/2); the test suite cross-checks both
    quadrature forms.
    """
    return complete_K(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)
