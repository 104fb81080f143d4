"""Embedded Runge-Kutta integration with a step cap, per system or in lanes.

Every entry point runs the Dormand-Prince 8(5,3) method with rtol = atol
= tol under a hard cap on accepted steps (so pathological coefficients
cannot hang a computation), and reports step-size underflow, and in
``solve_lanes`` a non-finite start (where scipy's first step never ends), as failures.
``solve_lanes`` steps scipy's Python ``DOP853`` over lanes, independent
systems stepped together, each with its own error norm (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.10); their failure is reported, not raised,
so the caller can retry lanes singly.  ``solve_final`` (under
``monodromy``, the reference path) is one lane of it whose failure raises.
``solve_hill_lanes`` (under ``hill.lane_traces``) takes the same steps for
the linear lanes u'' = c(tau) u on its own loop with scipy's DOP853
tableau and controller: all stage times of a step are known when it
starts (II.4), so one coefficient table per step replaces twelve calls of
a general right-hand side, and on a linear second-order system DOP853 is
a Runge-Kutta-Nystrom method (II.14) whose stages follow from the
accelerations alone, so a pair of stages is one product and one multiply.
``solve_sampled`` runs the beam's long trajectories on the compiled DOP853
(scipy's ``ode``), one call per sample time, so only the right-hand side
and a step counter run in Python and every row is an integrated value.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853, ode

from .errors import IntegrationFailure, require_in

DEFAULT_MAX_STEPS = 10_000_000


def _check_tol(tol: float) -> float:
    return require_in("tol", tol, 1e-12, 1e-6, "[]")


def solve_final(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t0 to t1 > t0 and return y(t1)."""
    sol = solve_lanes(rhs, t0, t1, np.asarray(y0, dtype=float)[:, None], tol, max_steps)
    if sol.failure is not None:
        raise IntegrationFailure(sol.failure)
    return sol.y[:, 0]


def solve_sampled(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    t_samples: np.ndarray,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t0 and return y at each of ``t_samples``,
    which must lie in [t0, t1], as an array of shape (len(t_samples),
    len(y0)).  ``max_steps`` caps the accepted steps of the whole run."""
    tol = _check_tol(tol)
    y0 = np.asarray(y0, dtype=float)
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.size and not t0 <= t_samples.min() <= t_samples.max() <= t1:
        raise ValueError(f"t_samples must lie in [t0, t1] = [{t0!r}, {t1!r}]")
    out = np.empty((t_samples.size, y0.size))
    failures = {2: f"step cap {max_steps} exceeded", -2: "over max_steps steps in one call",
                -1: "inconsistent input", -3: "step size underflow", -4: "problem looks stiff"}
    # the counter runs after each accepted step and once at each call's start
    calls, starts = itertools.count(1), 0
    solver = ode(rhs).set_integrator("dop853", rtol=tol, atol=tol, nsteps=max_steps)
    solver.set_solout(lambda t, y: -1 if next(calls) - starts > max_steps else 0)
    solver.set_initial_value(y0, t0)
    prev, row = t0, y0
    with warnings.catch_warnings():
        # scipy warns on each failed call; the failure is raised instead
        warnings.filterwarnings("ignore", "dop853: ", UserWarning)
        for i, t in enumerate(t_samples):
            if t != prev:  # a zero-length call would fail
                starts += 1
                prev, row = t, solver.integrate(t)
                code = solver.get_return_code()
                if code == 2 or code < 0:
                    raise IntegrationFailure(f"{failures.get(code, code)} at t={solver.t}")
            out[i] = row
    return out


_TINY = np.finfo(float).tiny


def _lane_error_norm(err, h, scale, m):
    """The largest of scipy's DOP853 error norms taken over each lane's own m
    components; ``err`` holds the flat, component-major E5 and E3 sums of
    the stages as its two rows."""
    err5, err3 = ((err / scale).reshape(2, m, -1) ** 2).sum(axis=1)
    # both sums vanish together only for an exact step, whose norm is 0
    denom = np.maximum(err5 + 0.01 * err3, _TINY)
    return float((abs(h) * err5 / np.sqrt(denom * m)).max())


class _LaneDOP853(DOP853):
    """DOP853 over n lanes of m components held as one flat, component-major
    state (an (m, n) array raveled), with the per-lane error norm."""

    def __init__(self, fun, t0, y0, t_bound, m, **options):
        self.lane_size = m
        super().__init__(fun, t0, y0, t_bound, **options)

    def _estimate_error_norm(self, K, h, scale):
        err = np.array([np.dot(K.T, self.E5), np.dot(K.T, self.E3)])
        return _lane_error_norm(err, h, scale, self.lane_size)


@dataclass(frozen=True)
class LaneSolution:
    """End of a lockstep integration.

    ``y`` has the shape of the initial state, one column per lane.
    ``steps`` counts steps, with the one that failed if any, and
    ``rhs_evals`` calls of the right-hand side, each of which covers every
    lane.  ``failure`` is None, or why the batch stopped early (step cap,
    underflow, or in ``solve_lanes`` a non-finite start); ``y`` is then meaningless.
    """

    y: np.ndarray
    steps: int
    rhs_evals: int
    failure: str | None = None


def solve_lanes(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    y0: np.ndarray,
    tol: float,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> LaneSolution:
    """Integrate y' = rhs(t, y) from t0 to t1 > t0 for a batch of lanes.

    ``y0`` has shape (m, n): n independent systems of m components, which
    share every time point.  ``rhs`` is called with a scalar t and the
    flat state, laid out as ``y0.ravel()``, and returns its flat
    derivative, so it can work on an (m, n) view through
    ``reshape(m, -1)``.  Each lane's error
    is measured with scipy's DOP853 norm over its own m components, and a
    step is accepted only when the largest lane norm is below one, so
    every lane meets at least the tolerance it would be held to alone.  A
    non-finite lane norm rejects the step, as it does in scipy.  The first
    step is scipy's choice for the whole flat batch.
    """
    tol = _check_tol(tol)
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    y0 = np.asarray(y0, dtype=float)
    solver = _LaneDOP853(rhs, t0, y0.ravel(), t1, y0.shape[0], rtol=tol, atol=tol)
    steps, failure = 0, None
    if not np.isfinite(solver.f).all():
        failure = f"non-finite derivative at t0={solver.t}"
    while failure is None and solver.status == "running":
        solver.step()
        steps += 1
        if steps > max_steps:
            failure = f"step cap {max_steps} exceeded at t={solver.t}"
        elif solver.status == "failed":
            failure = f"step size underflow at t={solver.t}"
    return LaneSolution(solver.y.reshape(y0.shape), steps, solver.nfev, failure)


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5


def _nystrom_tableau():
    """DOP853 on u'' = c(t) u in Runge-Kutta-Nystrom form (Hairer, Norsett &
    Wanner, II.14): U_s = u + h (sum_k a_sk) v + h^2 (a^2)_s F, F_j = c U_j,
    with stage n the step's end (row B, time 1).  Returns the levels, runs
    [s0, s1) of stages that use F of earlier levels only, the weights W0,
    W1, W2 (W0 + h W1 + h^2 W2 on [u; v; F_0 .. F_n]) of U_1 .. U_n, v_new
    and the E5 and E3 sums (u and v halves), and scipy's stage sums on F."""
    n = DOP853.n_stages
    a = np.zeros((n + 1, n + 1))
    a[:n, :n], a[n, :n] = DOP853.A, DOP853.B
    uses, level = np.einsum("ij,jk", a != 0, a != 0), [0]  # einsum: no BLAS at import
    for s in range(1, n + 1):
        level.append(1 + max((level[j] for j in np.flatnonzero(uses[s])), default=0))
    starts = [s for s in range(1, n + 1) if level[s] != level[s - 1]] + [n + 1]
    # the v weights are exact sums, so v cancels as it does in exact arithmetic
    w = np.zeros((3, n + 5, n + 3))
    w[0, :n, 0], w[1, :n, 1] = 1.0, [*map(math.fsum, a[1:])]
    w[2, :n, 2:] = np.einsum("ij,jk", a, a)[1:]
    w[0, n, 1], w[1, n, 2:] = 1.0, a[n]
    for r, e in ((n + 1, DOP853.E5), (n + 3, DOP853.E3)):  # E K = ((sum E) v + h E a F; E F)
        w[0, r, 1], w[1, r, 2:], w[0, r + 1, 2:] = math.fsum(e), np.einsum("i,ij", e, a), e
    return list(zip(starts, starts[1:])), w, a[1:, :n]


# the levels, step weights and stage sums, the largest |F| at which no stage
# sum can overflow, the stage times of a step from t in units of h (stages
# 1..12), and the controller's exponent
_LEVELS, _WEIGHTS, _STAGE_SUMS = _nystrom_tableau()
_F_SAFE = 1e300 / np.abs(_STAGE_SUMS).sum(axis=1).max()
_STAGE_C = np.append(DOP853.C[1:], 1.0)
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)


def solve_hill_lanes(
    coef: Callable[[np.ndarray], np.ndarray],
    lanes: int,
    tol: float,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> LaneSolution:
    """Principal solutions of u'' = c_i(tau) u, tau from 0 to 1, for lanes i.

    ``coef(taus)`` returns every lane's c at the times ``taus``, shape
    (len(taus), lanes).  ``y`` has rows u1, u2, u1', u2', one column per
    lane.  The steps are ``solve_lanes``' on this right-hand side, with
    scipy's DOP853 initial step, controller and per-lane error norm, so the
    step and right-hand-side counts are the same and the traces agree within
    rounding.  A step is DOP853 in Nystrom form (``_nystrom_tableau``): c at
    all its stage times comes from one ``coef`` call, its weights from one
    product, each level of stages is one product with the rows [u; v; F_0
    ..] and one multiply by its coefficients, and the end state and error
    estimates are one more product.  As in scipy, a step whose stage sums A
    F are not finite is rejected; a c not finite at tau = 0 (a lane that
    ``hill.lane_traces`` keeps out) fails the first step as an underflow.
    Where a lane's error estimate is rounding noise and sets the step (a lane
    that overflows or nearly does), the rounding differs from scipy's and the
    batch can take a step or two more or fewer.
    """
    tol = _check_tol(tol)
    n, n2 = DOP853.n_stages, 2 * lanes
    g = np.zeros((n + 3, n2))  # the rows u, v, F_0 .. F_n, each (2, lanes)
    g[0, :lanes] = g[1, lanes:] = 1.0  # u1 = u2' = 1 at tau = 0
    # the U rows of the last level (u_new last), v_new and the E5 and E3 sums
    # (u and v halves); the other levels put U in their F rows
    k = n + 1 - _LEVELS[-1][0]
    rows, w = np.empty((k + 5, n2)), np.empty(_WEIGHTS.shape[1:])
    y, y_new, f0, f = g[:2].ravel(), rows[k - 1:k + 1].ravel(), g[1:3].ravel(), g[2:n + 2]
    err = rows[k + 1:].reshape(2, -1)
    levels = [(w[s0 - 1:s1 - 1, :s0 + 2], g[:s0 + 2], u, slice(s0 - 1, s1 - 1),
               u.reshape(-1, 2, lanes), g[s0 + 2:s1 + 2].reshape(-1, 2, lanes))
              for s0, s1 in _LEVELS for u in [rows[:k] if s1 > n else g[s0 + 2:s1 + 2]]]
    w_end, ends, weights = w[n:], rows[k:], _WEIGHTS.reshape(3, -1)

    # scipy's initial step over the flat batch, with its two right-hand sides
    scale = tol + np.abs(y) * tol
    np.multiply(coef(np.zeros(1)), g[0].reshape(2, lanes), out=g[2].reshape(2, lanes))
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    y1 = y + h0 * f0
    f1 = np.concatenate((y1[n2:], (coef(np.full(1, h0)) * y1[:n2].reshape(2, lanes)).ravel()))
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** -_EXPONENT)
    h_abs, t, steps, attempts, failure = min(100 * h0, h1, 1.0), 0.0, 0, 0, None
    while failure is None and t < 1.0:
        min_step = 10 * math.ulp(t)
        h_abs, rejected, accepted = max(h_abs, min_step), False, False
        while not accepted and h_abs >= min_step:
            t_new = min(t + h_abs, 1.0)
            h = h_abs = t_new - t
            table = coef(t + _STAGE_C * h)[:, None]
            np.dot((1.0, h, h * h), weights, out=w.reshape(-1))
            for w_level, g_used, u_level, at, u_3d, f_level in levels:  # F = c U by level
                np.dot(w_level, g_used, out=u_level)
                np.multiply(table[at], u_3d, out=f_level)
            np.dot(w_end, g, out=ends)
            attempts += 1
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            overflow = not np.abs(f).max() < _F_SAFE and not np.isfinite(_STAGE_SUMS @ f).all()
            norm = math.inf if overflow else _lane_error_norm(err, h, scale, 4)
            factor = 10.0 if norm == 0 else 0.9 * norm**_EXPONENT
            if norm < 1:
                h_abs *= min(10.0, factor, 1.0 if rejected else 10.0)
                t, accepted = t_new, True
                g[:2], g[2] = rows[k - 1:k + 1], g[n + 2]
            else:
                h_abs *= max(0.2, factor)
                rejected = True
        steps += 1
        if steps > max_steps:
            failure = f"step cap {max_steps} exceeded at t={t}"
        elif not accepted:
            failure = f"step size underflow at t={t}"
    return LaneSolution(y.reshape(4, lanes), steps, 2 + n * attempts, failure)
