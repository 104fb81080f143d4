"""Sufficient stability criteria for Hill equations and their reductions.

Three classical tests are implemented against the ``PeriodicCoefficient``
surface: an L^2 test comparing T^3 * int p^2 with (64/3) sigma^4, an
interval test trapping p between consecutive squared harmonics, and the
phase-integral test comparing int sqrt(p) +- (1/2) log(max p / min p)
with a window (l pi, (l+1) pi).  All are sufficient only: the outcome is
either a guarantee of stability or "inconclusive", never a claim of
instability.  These time-domain tests are the general path.

For the squared-Duffing coefficients p = c + y^2 (``SquaredDuffing``) the
three tests have closed forms, which ``criteria-map`` uses in both planes.
With y = delta sin a the time element is dt = sqrt(2 w) da / R(a), where
R(a) = sqrt(2 + delta^2 + delta^2 sin^2 a) and w = ``Plane.scale(c)`` is the
solution's frequency scale (``hill.Plane``: 1 in the gamma plane, omega in
the omega plane), so each time integral over a period becomes a smooth
quadrature over a quarter phase, free of Jacobi functions:
int p^2 dt = 2 sqrt(2 w) int_0^{pi/2} (c + delta^2 sin^2 a)^2 / R(a) da
(``g_function`` is its gamma = 0 case), and int sqrt(p) dt = sqrt(w) ``phi``
(``psi`` in the omega plane).  The interval test needs only the period and
the exact bounds c and c + delta^2.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .duffing import _DELTA_MAX, period
from .elliptic import sigma_constant
from .errors import DomainError, require_in
from .hill import PeriodicCoefficient, Plane

# absolute target for the closed-form quadratures
_QUAD_EPS = 1e-12
# strict inequalities hold only with at least this margin, so round-off
# can never flip a sufficient condition
_MARGIN = 1e-10

_SAMPLE_COUNT = 10_000


class Criterion(enum.Enum):
    LI_ZHANG = "li_zhang"
    ZHUKOVSKII = "zhukovskii"
    BURDINA = "burdina"


class Outcome(enum.Enum):
    GUARANTEED_STABLE = "guaranteed_stable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one sufficient stability test.

    ``witness_ell`` is the index of the harmonic window that certifies
    stability (present whenever the interval or phase-integral test
    succeeds).  ``quantities`` holds the evaluated numbers so callers can
    report margins; ``note`` explains inconclusive outcomes.
    """

    criterion: Criterion
    outcome: Outcome
    witness_ell: int | None = None
    quantities: dict[str, float] = field(default_factory=dict)
    note: str = ""

    @property
    def guaranteed_stable(self) -> bool:
        return self.outcome is Outcome.GUARANTEED_STABLE


def _sampled_bounds(p: PeriodicCoefficient) -> tuple[float, float]:
    """Conservative (min, max) of p from sampling, widened by the largest
    change between neighbouring samples."""
    ts = np.linspace(0.0, p.period, _SAMPLE_COUNT, endpoint=False)
    vals = np.array([p(t) for t in ts])
    pad = float(np.max(np.abs(np.diff(vals))))
    return float(vals.min()) - pad, float(vals.max()) + pad


def _bounds(p: PeriodicCoefficient) -> tuple[float, float]:
    if p.analytic_min is not None and p.analytic_max is not None:
        return float(p.analytic_min), float(p.analytic_max)
    return _sampled_bounds(p)


def li_zhang(p: PeriodicCoefficient) -> CriterionVerdict:
    """L^2 mean test: stable if p >= 0 and T^3 int_0^T p^2 < (64/3) sigma^4."""
    pmin, pmax = _bounds(p)
    if pmin < 0.0:
        return _needs_positive(Criterion.LI_ZHANG, pmin)
    # p / s with s a power of two keeps p^2 in range (a product past it is
    # inf, not an OverflowError); the scaling is exact, so below overflow
    # the quadrature is the one on p^2 itself
    s = math.ldexp(1.0, max(math.frexp(pmax)[1] - 1, 0))
    T = p.period
    integral, err = quad(lambda t: (p(t) / s) ** 2, 0.0, T, epsabs=_QUAD_EPS / s / s,
                         epsrel=1e-11, limit=400)
    return _l2_test(T**3 * integral * s * s, T**3 * err * s * s)


def _needs_positive(criterion: Criterion, pmin: float) -> CriterionVerdict:
    """Inconclusive verdict for a minimum ``pmin`` below what ``criterion``
    needs: p >= 0, or p > 0 for the phase-integral test."""
    strict = criterion is Criterion.BURDINA
    return CriterionVerdict(criterion, Outcome.INCONCLUSIVE, quantities={"min_p": pmin},
                            note="requires p > 0" if strict else "requires p >= 0")


def _l2_test(lhs: float, err: float) -> CriterionVerdict:
    """Li-Zhang's bound on lhs = T^3 int_0^T p^2, with quadrature error ``err``."""
    rhs = (64.0 / 3.0) * sigma_constant() ** 4
    margin = max(err, _MARGIN)
    q = {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs}
    if lhs < rhs - margin:
        return CriterionVerdict(Criterion.LI_ZHANG, Outcome.GUARANTEED_STABLE, quantities=q)
    return CriterionVerdict(Criterion.LI_ZHANG, Outcome.INCONCLUSIVE, quantities=q,
                            note="L^2 bound not met")


def zhukovskii(p: PeriodicCoefficient) -> CriterionVerdict:
    """Harmonic interval test: stable if some l has
    l^2 pi^2 / T^2 <= p <= (l+1)^2 pi^2 / T^2 everywhere, each end held
    with the relative margin ``_MARGIN``; a non-finite max p is inconclusive."""
    return _harmonic_window(*_bounds(p), p.period)


def _harmonic_window(pmin: float, pmax: float, T: float) -> CriterionVerdict:
    """Zhukovskii's test on a coefficient of period T with bounds [pmin, pmax]."""
    if pmin < 0.0:
        return _needs_positive(Criterion.ZHUKOVSKII, pmin)
    scale = math.pi / T
    index = math.sqrt(pmin) / scale
    if not math.isfinite(index):
        return CriterionVerdict(Criterion.ZHUKOVSKII, Outcome.INCONCLUSIVE,
                                quantities={"min_p": pmin, "max_p": pmax},
                                note="harmonic index sqrt(min p) T / pi is not finite")
    ell = int(math.floor(index))
    lo, hi = ell * scale, (ell + 1) * scale  # a square past the float range is inf
    q = {"min_p": pmin, "max_p": pmax,  # ell = 0 keeps 0 * inf out of window_lo
         "window_lo": lo * lo if ell else 0.0, "window_hi": hi * hi}
    if not math.isfinite(pmax):
        return CriterionVerdict(Criterion.ZHUKOVSKII, Outcome.INCONCLUSIVE, quantities=q,
                                note="max p is not finite")
    # both ends with a relative margin, so a rounded bound cannot reach a harmonic
    if q["window_lo"] * (1.0 + _MARGIN) <= pmin and pmax <= q["window_hi"] * (1.0 - _MARGIN):
        return CriterionVerdict(Criterion.ZHUKOVSKII, Outcome.GUARANTEED_STABLE,
                                witness_ell=ell, quantities=q)
    return CriterionVerdict(Criterion.ZHUKOVSKII, Outcome.INCONCLUSIVE, quantities=q,
                            note="range straddles a squared harmonic")


def burdina(p: PeriodicCoefficient) -> CriterionVerdict:
    """Phase-integral test: stable if some l has l pi < A - B and A + B < (l+1) pi,
    with A = int sqrt(p) over a period and B = (1/2) log(max/min).  Requires
    p > 0 with a unique maximum and minimum per period; a quadrature of A that
    warns is inconclusive."""
    if not p.single_extremum_pair:
        return CriterionVerdict(Criterion.BURDINA, Outcome.INCONCLUSIVE,
                                note="requires a unique extremum pair per period")
    pmin, pmax = _bounds(p)
    if pmin <= 0.0:
        return _needs_positive(Criterion.BURDINA, pmin)
    with warnings.catch_warnings(record=True) as caught:  # err is then no bound
        warnings.simplefilter("always", IntegrationWarning)
        A, err = quad(lambda t: math.sqrt(p(t)), 0.0, p.period, epsabs=_QUAD_EPS,
                      epsrel=1e-11, limit=400)
    if caught:
        return CriterionVerdict(Criterion.BURDINA, Outcome.INCONCLUSIVE,
                                note="phase integral did not converge")
    return _phase_window(A, 0.5 * math.log(pmax / pmin), max(err, _MARGIN))


def _phase_window(A: float, B: float, margin: float, **quantities: float) -> CriterionVerdict:
    """Burdina's window test: stable if some l has l pi < A - B and
    A + B < (l + 1) pi, each by more than ``margin``.  Only l = floor(A / pi)
    can work (the window containing A is unique), so only it is tried.
    ``quantities`` are reported with A, B and the window."""
    q = dict(quantities, phase_integral=A, log_correction=B)
    if not math.isfinite(A):
        return CriterionVerdict(Criterion.BURDINA, Outcome.INCONCLUSIVE, quantities=q,
                                note="phase integral is not finite")
    ell = int(math.floor(A / math.pi))
    q.update(window_lo=ell * math.pi, window_hi=(ell + 1) * math.pi)
    if ell >= 0 and A - B - ell * math.pi > margin and (ell + 1) * math.pi - (A + B) > margin:
        return CriterionVerdict(Criterion.BURDINA, Outcome.GUARANTEED_STABLE,
                                witness_ell=ell, quantities=q)
    return CriterionVerdict(Criterion.BURDINA, Outcome.INCONCLUSIVE, quantities=q,
                            note="corrected phase integral leaves its window")


def _require_point(delta: float, name: str, c: float, op: str = ">") -> None:
    """The closed forms' check: 0 < delta with 2 (1 + delta^2) finite, and finite c ``op`` 0."""
    if not (0.0 < delta <= _DELTA_MAX and 0.0 <= c < math.inf and (c > 0.0 or op == ">=")):
        raise DomainError(f"need finite delta > 0 with 2 (1 + delta^2) finite and {name} {op} 0, "
                          f"got ({delta!r}, {c!r})")


def phi(delta: float, gamma: float) -> float:
    """Closed-form phase integral for the gamma-plane coefficient.

    phi(delta, gamma) = 2 sqrt(2) int_0^{pi/2}
    sqrt((gamma + delta^2 sin^2 t) / (2 + delta^2 + delta^2 sin^2 t)) dt,
    which equals the time-domain integral of sqrt(gamma + y^2) over half a
    Duffing period.  gamma = 0 is allowed (integrable endpoint).  delta
    must have 2 (1 + delta^2) finite, as in ``DuffingParams``.
    """
    return _phi_and_error(delta, gamma)[0]


def _phi_and_error(delta: float, gamma: float) -> tuple[float, float]:
    """``phi(delta, gamma)`` and the quadrature's error estimate of it."""
    _require_point(delta, "gamma", gamma, ">=")
    d2 = delta * delta

    def integrand(t: float) -> float:
        s2 = math.sin(t) ** 2
        return math.sqrt((gamma + d2 * s2) / (2.0 + d2 + d2 * s2))

    val, err = quad(integrand, 0.0, math.pi / 2.0, epsabs=_QUAD_EPS, epsrel=1e-12,
                    limit=400)
    return 2.0 * math.sqrt(2.0) * val, 2.0 * math.sqrt(2.0) * err


def psi(delta: float, omega: float) -> float:
    """Closed-form phase integral for the omega-plane coefficient.

    psi(delta, omega) = sqrt(omega) * phi(delta, omega), the phase integral
    at frequency scale w = omega; it decreases from pi * omega at delta = 0
    to pi sqrt(omega / 2) as delta -> infinity (strictly, for omega >= 1).
    """
    _require_point(delta, "omega", omega)
    return math.sqrt(omega) * phi(delta, omega)


def _burdina_condition(plane: Plane, delta: float, c: float) -> CriterionVerdict:
    """Closed-form phase-integral condition at the point (delta, c) of ``plane``.

    The window test with A = sqrt(w) phi(delta, c), w = ``plane.scale(c)``,
    and B = (1/2) log(1 + delta^2/c); by the change of variables behind
    ``phi`` this is exactly the time-domain phase-integral test.  Each end
    must hold by half ``_MARGIN``, or by A's own error (the quadrature's
    estimate plus four ulp of A) where that is larger.
    """
    _require_point(delta, plane.value, c)
    log_ratio = math.log1p(delta * delta / c)
    root_w = math.sqrt(plane.scale(c))
    phase, err = _phi_and_error(delta, c)
    A = root_w * phase
    # log_ratio < 2 min(A - l pi, (l + 1) pi - A) - 2 margin, in the window test's form
    return _phase_window(A, 0.5 * log_ratio, max(0.5 * _MARGIN, root_w * err + 4 * math.ulp(A)),
                         delta=delta, **{plane.value: c}, log_ratio=log_ratio)


def burdina_condition_gamma(delta: float, gamma: float) -> CriterionVerdict:
    """Phase-integral condition in closed form for the gamma plane."""
    return _burdina_condition(Plane.GAMMA, delta, gamma)


def burdina_condition_omega(delta: float, omega: float) -> CriterionVerdict:
    """Phase-integral condition in closed form for the omega plane."""
    return _burdina_condition(Plane.OMEGA, delta, omega)


class SquaredDuffing:
    """The chart coefficient p = c + y^2 at (delta, c) of ``plane``, with the
    three tests in closed form.

    y is the Duffing solution of amplitude delta at frequency scale
    w = ``plane.scale(c)``.  p has period T = ``duffing.period`` / 2 and
    exact bounds c and c + delta^2.  Each method is the time-domain test of
    the same name on ``plane.coefficient(delta, c)``, with its time integral
    taken over a quarter phase instead (see the module docstring).  The
    constructor raises the ``DomainError`` of ``plane.params``.
    """

    def __init__(self, plane: Plane, delta: float, offset: float) -> None:
        params = plane.params(delta, offset)
        self.plane = plane
        self.offset = float(offset)
        self.scale = plane.scale(self.offset)
        self.period = period(params) / 2.0
        self.delta = abs(float(delta))

    def l2_quantity(self) -> tuple[float, float]:
        """T^3 int_0^T p^2 dt and its quadrature error.

        int_0^T p^2 dt = 2 sqrt(2 w) int_0^{pi/2} (c + delta^2 sin^2 a)^2 / R(a) da,
        evaluated with c, delta^2 and R^2 divided by s = 1 + delta^2 and the
        factor s^(3/2) moved onto T^3, so no intermediate overflows while
        2 (1 + delta^2) is finite.
        """
        s = 1.0 + self.delta * self.delta
        c, d, e = self.offset / s, self.delta * self.delta / s, 2.0 / s

        def integrand(a: float) -> float:
            s2 = math.sin(a) ** 2
            q = c + d * s2
            return q * q / math.sqrt(e + d + d * s2)

        val, err = quad(integrand, 0.0, math.pi / 2.0, epsabs=_QUAD_EPS, epsrel=1e-12,
                        limit=400)
        t = self.period * math.sqrt(s)
        factor = 2.0 * math.sqrt(2.0 * self.scale) * t * t * t
        return factor * val, factor * err

    def li_zhang(self) -> CriterionVerdict:
        if self.offset < 0.0:
            return _needs_positive(Criterion.LI_ZHANG, self.offset)
        return _l2_test(*self.l2_quantity())

    def zhukovskii(self) -> CriterionVerdict:
        return _harmonic_window(self.offset, self.offset + self.delta * self.delta, self.period)

    def burdina(self) -> CriterionVerdict:
        if self.offset <= 0.0:
            return _needs_positive(Criterion.BURDINA, self.offset)
        return _burdina_condition(self.plane, self.delta, self.offset)


def g_function(delta: float) -> float:
    """L^2 quantity T^3 int_0^T p^2 of the gamma = 0 coefficient in closed form.

    Equivalently g(delta) = 64 * (int_0^{pi/2} sin^4 a / sqrt(2/delta^2 + 1
    + sin^2 a) da) * (int_0^{pi/2} da / sqrt(2/delta^2 + 1 + sin^2 a))^3.  It
    increases strictly from 0 to (64/3) sigma^4 as delta runs over (0,
    infinity), which is what guarantees stability on the whole gamma = 0 axis.
    delta must be positive with 2 (1 + delta^2) finite, as in ``DuffingParams``.
    """
    require_in("delta", delta, 0.0, _DELTA_MAX, "(]")
    return SquaredDuffing(Plane.GAMMA, delta, 0.0).l2_quantity()[0]
