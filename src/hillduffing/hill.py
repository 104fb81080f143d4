"""Monodromy matrices and Floquet classification for Hill equations.

A Hill equation is xi'' + p(t) xi = 0 with p periodic of least period T.
The principal fundamental matrix at t = T (the monodromy matrix) decides
stability: both Floquet multipliers lie on the unit circle exactly when
|trace| <= 2.  This module builds the periodic coefficients, integrates
with an adaptive embedded Runge-Kutta pair the monodromy matrix of any one
of them (the reference path) and the traces of a batch of squared-Duffing
points (the path of every squared-Duffing trace in the library), and
verifies the three closed-form resonant solutions built from Jacobi functions.

It is also the home of the chart plane model (``Plane``): the gamma and
omega planes are one equation xi'' + (y + Theta^2) xi = 0, with Theta the
Duffing solution at frequency scale w = 1 or w = omega (``Plane.scale``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import elliptic
from .duffing import DuffingParams, _modulus, period, valid_amplitude
from .errors import DomainError, require_count, require_finite, require_in
from .integrate import DEFAULT_MAX_STEPS, _check_tol, solve_final, solve_hill_lanes

DEFAULT_TOL = 1e-10
DEFAULT_TOL_BOUNDARY = 1e-4


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class PeriodicCoefficient:
    """A periodic coefficient p(t) with its least period and metadata.

    ``analytic_min``/``analytic_max`` are exact bounds when known (the
    stability criteria prefer them over sampling).  ``single_extremum_pair``
    records whether p attains a unique maximum and a unique minimum per
    period, a precondition of the phase-integral criterion.
    """

    func: Callable[[float], float]
    period: float
    analytic_min: float | None = None
    analytic_max: float | None = None
    single_extremum_pair: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        require_in("period", self.period, 0.0, math.inf)

    def __call__(self, t: float) -> float:
        return self.func(t)


@dataclass(frozen=True)
class MonodromyReport:
    """Monodromy matrix over one coefficient period and its classification.

    ``det_residual`` is |det M - 1|; the system is trace-free so the
    Wronskian is conserved, and the residual is a sign of integration
    error, not a measure of it.  The multipliers are the eigenvalues of M, computed
    from the trace through the det = 1 constraint.
    """

    matrix: np.ndarray
    trace: float
    multipliers: tuple[complex, complex]
    classification: Stability
    det_residual: float
    tol: float = field(default=DEFAULT_TOL, compare=False)


class Plane(enum.Enum):
    """Which second parameter y spans the vertical axis of a stability chart.

    Both planes hold xi'' + (y + Theta(t)^2) xi = 0 with Theta the Duffing
    solution of amplitude delta at frequency scale w = ``scale(y)``: 1 in
    the gamma plane, y = omega (the beam's n^2/m^2) in the omega plane.
    """

    GAMMA = "gamma"
    OMEGA = "omega"

    def scale(self, y):
        """Frequency scale w of the Duffing solution at ``y``: 1.0, or ``y`` itself
        in the omega plane (an array y broadcasts against either)."""
        return y if self is Plane.OMEGA else 1.0

    def params(self, delta: float, y: float) -> DuffingParams:
        """The Duffing solution ``DuffingParams(delta, scale(y))`` behind the
        point (delta, y); a ``DomainError`` names a bad delta, y or omega."""
        require_finite(**{self.value: y})
        return DuffingParams(delta, self.scale(y))

    def coefficient(self, delta: float, y: float) -> PeriodicCoefficient:
        """Hill coefficient p(t) = y + delta^2 cn^2(rate t, k) at (delta, y): the
        square halves the period to T/2, with minimum y and maximum
        y + delta^2 each attained once per period."""
        params = self.params(delta, y)
        c = float(y)
        rate = params.argument_rate
        k = params.modulus
        d2 = float(params.delta) * float(params.delta)

        def p(t: float) -> float:
            cn = elliptic.jacobi(rate * t, k).cn
            return c + d2 * cn * cn

        return PeriodicCoefficient(
            func=p,
            period=period(params) / 2.0,
            analytic_min=c,
            analytic_max=c + d2,
            single_extremum_pair=True,
            label=f"{self.value}_plane(delta={delta}, {self.value}={y})",
        )

    def lane_pair(self, ys) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) = (w y, w), NaN where w <= 0.  After the time rescaling
        s = t / sqrt(w), which leaves the monodromy trace unchanged, the
        coefficient at each (delta, y) of ``ys`` is a + b c(s), with
        c(s) = delta^2 cn^2(sqrt(1 + delta^2) s, k)."""
        ys = np.asarray(ys, dtype=float)
        w = np.broadcast_to(self.scale(ys), ys.shape)
        w = np.where(w > 0.0, w, math.nan)
        with np.errstate(over="ignore"):  # a lane whose w y overflows is not live
            return w * ys, w


def squared_duffing_coefficient(delta: float, gamma: float) -> PeriodicCoefficient:
    """Coefficient p(t) = gamma + y(t)^2 with y the unscaled Duffing solution.

    Period T(delta)/2, bounds [gamma, gamma + delta^2]; all criteria are
    applied with this halved period.
    """
    return Plane.GAMMA.coefficient(delta, gamma)


def omega_coefficient(delta: float, omega: float) -> PeriodicCoefficient:
    """Coefficient p(t) = omega + Theta(t)^2 for the omega-scaled solution.

    Reduces to ``squared_duffing_coefficient(delta, gamma=1)`` at
    omega = 1.  Period is T_omega(delta)/2, bounds are [omega,
    omega + delta^2].
    """
    return Plane.OMEGA.coefficient(delta, omega)


def mathieu_coefficient(a: float, q: float) -> PeriodicCoefficient:
    """Cross-validation fixture p(t) = a + 2 q cos(2 t) of period pi."""
    a, q = float(a), float(q)
    require_finite(a=a, q=q)

    def p(t: float) -> float:
        return a + 2.0 * q * math.cos(2.0 * t)

    return PeriodicCoefficient(
        func=p,
        period=math.pi,
        analytic_min=a - 2.0 * abs(q),
        analytic_max=a + 2.0 * abs(q),
        single_extremum_pair=q != 0.0,
        label=f"mathieu(a={a}, q={q})",
    )


_STABILITY = tuple(Stability)
_FAILED_CODE = len(_STABILITY)  # the class code of a NaN trace


def _class_codes(trace, tol_boundary: float):
    """``trace``'s class as its index in ``Stability``, or ``_FAILED_CODE`` where it is NaN."""
    band = require_in("tol_boundary", tol_boundary, 0.0, 2.0, "[)")
    mag = abs(trace)  # mag == mag fails only for NaN; a float takes no numpy call
    return _FAILED_CODE - (mag == mag) - 2 * (mag < 2.0 - band) - (mag > 2.0 + band)


def classify_trace(trace: float, tol_boundary: float = DEFAULT_TOL_BOUNDARY) -> Stability:
    """Classify a monodromy trace against the |trace| = 2 resonance level, with a boundary
    band of half-width ``tol_boundary`` in [0, 2); ``scan`` applies the same rule to a grid."""
    code = _class_codes(trace, tol_boundary)
    if code == _FAILED_CODE:
        raise DomainError("trace is NaN")
    return _STABILITY[code]


def multipliers_from_trace(trace: float) -> tuple[complex, complex]:
    """Floquet multipliers (tr +- sqrt(tr^2 - 4)) / 2 using det = 1."""
    disc = complex(trace * trace - 4.0)
    root = disc**0.5
    return ((trace + root) / 2.0, (trace - root) / 2.0)


def monodromy(
    p: PeriodicCoefficient,
    tol: float = DEFAULT_TOL,
    tol_boundary: float = DEFAULT_TOL_BOUNDARY,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MonodromyReport:
    """Integrate the principal fundamental matrix of xi'' + p(t) xi = 0.

    Both canonical columns, (1, 0) and (0, 1), are advanced together over
    one coefficient period with absolute and relative tolerance ``tol``.
    The coefficient is always evaluated analytically inside the integrator,
    never interpolated, so special-function error cannot compound with the
    stepping error.

    Raises
    ------
    IntegrationFailure
        If the step count exceeds ``max_steps``, the step size
        underflows or the coefficient is not finite at t = 0.
    DomainError
        If ``tol``, ``tol_boundary`` or ``max_steps`` (an integer >= 1) is
        out of range, before anything is integrated.
    """
    classify_trace(0.0, tol_boundary)  # rejects a bad band before integrating
    max_steps = require_count("max_steps", max_steps, 1)
    pf = p.func

    def rhs(t: float, y: np.ndarray):
        pt = pf(t)
        return (y[1], -pt * y[0], y[3], -pt * y[2])

    yT = solve_final(rhs, 0.0, p.period, (1.0, 0.0, 0.0, 1.0), tol, max_steps)
    matrix = np.array([[yT[0], yT[2]], [yT[1], yT[3]]])
    trace = float(yT[0] + yT[3])
    det = float(yT[0] * yT[3] - yT[2] * yT[1])
    return MonodromyReport(
        matrix=matrix,
        trace=trace,
        multipliers=multipliers_from_trace(trace),
        classification=classify_trace(trace, tol_boundary),
        det_residual=abs(det - 1.0),
        tol=tol,
    )


@dataclass(frozen=True)
class LaneTraces:
    """Monodromy traces of a batch of lanes (NaN where a lane failed, +-inf where
    one overflowed; 0-d for a point), the integration work summed over every
    attempt, and the largest finite Wronskian residual |u1 u2' - u1' u2 - 1| at
    tau = 1 over the finished lanes (the system is trace-free; the drift mostly
    reads below the trace's error, so it is a sign of error, not a measure of it).
    ``lane_traces`` reads a point's back in the same tail as a batch's."""

    trace: np.ndarray
    steps: int
    rhs_evals: int
    det_residual: float = 0.0


_TERMS = 13  # the nome is at most e^-pi for k <= 1/sqrt(2): n <= 12 reach rounding
_NPI = math.pi * np.arange(_TERMS)
_N = np.arange(1, _TERMS)
_N2, _D_SCALE = 2 * _N, 4.0 * math.pi**2 * _N


def _nome(x: float) -> tuple[float, float]:
    """K(k) and the nome q = exp(-pi K(k') / K(k)) of the modulus at delta = x, a delta
    that ``valid_amplitude`` accepts."""
    k = _modulus(x)
    K = elliptic.complete_K(k)
    kp = math.sqrt((1.0 - k) * (1.0 + k))  # is 1 only for |delta| < 1e-8, where q < 1e-17
    # math.exp: np.exp may round otherwise
    return K, math.exp(-math.pi * elliptic.complete_K(kp) / K) if kp < 1.0 else 0.0


def _cn2_series(delta):
    """Half period h = K(k) / sqrt(1 + delta^2) of delta^2 cn^2(sqrt(1 + delta^2) s, k), and
    the D_n of h^2 delta^2 cn^2(K tau, k) = sum D_n cos(n pi tau), tau = s / h (DLMF 22.11.13).
    For an array of U deltas, h has shape (U,) and D shape (U, 13); a float is the
    one-row batch, h a float and D its row of shape (13,)."""
    x = np.atleast_1d(np.asarray(delta, dtype=float))
    K, q = np.array([_nome(v) for v in x.tolist()]).reshape(-1, 2).T
    q = q[:, None]
    d = _D_SCALE * q**_N / (1.0 - q**_N2)
    h = K / np.sqrt(1.0 + x * x)
    d = np.column_stack((h * h * x * x - d.sum(axis=1), d))  # as cn(0) = 1
    return (float(h[0]), d[0]) if np.ndim(delta) == 0 else (h, d)


def lane_traces(delta, a, b, tol: float = DEFAULT_TOL,
                max_steps: int = DEFAULT_MAX_STEPS) -> LaneTraces:
    """Monodromy traces of xi'' + (a_i + b_i delta_i^2 cn^2(sqrt(1 + delta_i^2) s,
    k_i)) xi = 0 for every lane i, with ``delta``, ``a`` and ``b`` broadcast in any
    shape; ``trace`` has the broadcast shape, lane i its i-th element in C order.

    Lane i runs in its own time tau = s / h_i, h_i half its coefficient's
    period, in which the coefficient is h_i^2 a_i plus b_i times a series
    in the basis cos(n pi tau) that all lanes share (``_cn2_series``, taken
    once per batch over its distinct deltas), so the coefficients at all
    stage times of a step are one cosine table and one matrix product.  The
    coefficient is even, so the principal solutions u1, u2 give the trace
    2 (u1 u2' + u1' u2) at tau = 1 (Magnus & Winkler, *Hill's Equation*,
    1966).  The lanes step together on the linear DOP853 loop
    ``integrate.solve_hill_lanes`` (in Runge-Kutta-Nystrom form), with
    scipy's tableau, controller and a per-lane error norm; ``det_residual``
    is the largest finite drift of the Wronskian u1 u2' - u1' u2 from 1 over
    the finished lanes (one that overflows reads +-inf, its drift not finite).
    A lane is live when ``DuffingParams`` accepts its delta and its coefficient at
    tau = 0, -h_i^2 a_i - sum_n b_i D_n, is finite; a dead lane (a non-finite a_i
    or b_i, or an overflowing h_i^2 a_i) gets NaN and takes no part in its batch.
    Three Python floats (every ``tongues.trace_at``) are one point: its amplitude
    rule and series row are taken on floats, and it then goes as one-element arrays
    through the tail every batch runs (the liveness test, the kernel call, the
    failure rule and the read-back of trace and drift), so it gives the trace (0-d),
    steps, RHS count and residual of a batch in which the same lane is the only
    live one.  After a step-cap or step-size-underflow failure, and only then,
    each lane of a batch of two or more runs again through this call as its float
    point; a lane that fails alone gets NaN, its work counted, without a numpy
    warning.  ``max_steps`` must be an integer >= 1.  Traces are not bit for bit
    ``monodromy``'s, and their error grows with the lane's frequency, past the
    tolerance (README, "Numerical notes").
    """
    tol = _check_tol(tol)  # also when no lane is live
    max_steps = require_count("max_steps", max_steps, 1)
    if type(delta) is type(a) is type(b) is float:  # one point: no arrays to broadcast
        if not valid_amplitude(delta):
            return LaneTraces(np.array(math.nan), 0, 0)
        trace, live = np.array(math.nan), np.zeros(1, dtype=np.intp)  # one live lane, 0-d
        a, b, (h, d) = np.array([a]), np.array([b]), _cn2_series([delta])
    else:
        delta, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta, a, b)))
        trace = np.full(a.shape, math.nan)  # written through trace.flat, lane by lane
        delta, a, b = delta.ravel(), a.ravel(), b.ravel()
        live = np.flatnonzero(valid_amplitude(delta))
        uniq, where = np.unique(delta[live], return_inverse=True)
        h, d = (v[where] for v in _cn2_series(uniq))
    residual, runs = 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing lane reads +-inf
        neg_a, neg_bd = -h * h * a[live], -b[live, None] * d
        starts = np.isfinite(neg_a + neg_bd.sum(axis=1))  # c(0): the one liveness test
        live, neg_a, nbd = live[starts], neg_a[starts], neg_bd[starts].T
        if live.size:
            sol = solve_hill_lanes(
                lambda taus: neg_a + np.cos(np.multiply.outer(taus, _NPI)) @ nbd,
                live.size, tol, max_steps)
            runs.append(sol)
            if sol.failure is None:
                u1, u2, du1, du2 = sol.y
                p, q = u1 * du2, du1 * u2
                trace.flat[live] = 2.0 * (p + q)
                drift = abs(p - q - 1.0)
                residual = float(drift[np.isfinite(drift)].max(initial=0.0))
            elif live.size > 1:  # each lane of a batch that failed, as a point
                for i in live.tolist():
                    point = lane_traces(float(delta[i]), float(a[i]), float(b[i]), tol, max_steps)
                    trace.flat[i] = point.trace
                    runs.append(point)
                    residual = max(residual, point.det_residual)
    return LaneTraces(trace, sum(r.steps for r in runs), sum(r.rhs_evals for r in runs), residual)


class ExactLine(enum.Enum):
    """The three resonant lines with closed-form solutions.

    CN_AT_GAMMA_ONE:        xi = cn(t sqrt(1+delta^2)) solves at gamma = 1
    SN_AT_PARABOLA:         xi = sn(...) solves at gamma = 1 + delta^2/2
    DN_AT_NEGATIVE_PARABOLA: xi = dn(...) solves at gamma = -delta^2/2
    """

    CN_AT_GAMMA_ONE = "cn_at_gamma_one"
    SN_AT_PARABOLA = "sn_at_parabola"
    DN_AT_NEGATIVE_PARABOLA = "dn_at_negative_parabola"


def exact_solution_residual(kind: ExactLine, delta: float, t_samples) -> float:
    """Max residual |xi'' + (gamma + y^2) xi| of a closed-form solution.

    The second derivative is evaluated analytically through the Jacobi
    derivative identities, so the residual isolates algebra and
    special-function errors; it vanishes identically in exact arithmetic.
    """
    params = DuffingParams(delta)
    k = params.modulus
    k2 = k * k
    rate = params.argument_rate
    s2 = rate * rate
    d2 = float(delta) * float(delta)

    # gamma of each line, and (xi, xi'') of its solution at (sn, cn, dn)
    gamma, solution = {
        ExactLine.CN_AT_GAMMA_ONE:
            (1.0, lambda sn, cn, dn: (cn, -s2 * cn * (dn * dn - k2 * sn * sn))),
        ExactLine.SN_AT_PARABOLA:
            (1.0 + d2 / 2.0, lambda sn, cn, dn: (sn, -s2 * sn * (dn * dn + k2 * cn * cn))),
        ExactLine.DN_AT_NEGATIVE_PARABOLA:
            (-d2 / 2.0, lambda sn, cn, dn: (dn, -s2 * k2 * dn * (cn * cn - sn * sn))),
    }[kind]

    worst = 0.0
    for t in t_samples:
        sn, cn, dn = elliptic.jacobi(rate * float(t), k)
        xi, xi_dd = solution(sn, cn, dn)
        worst = max(worst, abs(xi_dd + (gamma + d2 * cn * cn) * xi))
    return worst
