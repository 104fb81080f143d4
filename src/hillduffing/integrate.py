"""Embedded Runge-Kutta integration with a step cap, per system or in lanes.

``solve_final`` and ``solve_sampled`` wrap scipy's DOP853 for one system.
They add the two behaviours the library contracts require and scipy's
``solve_ivp`` does not expose directly: a hard cap on the number of
accepted steps (so pathological coefficients cannot hang a computation)
and an ``IntegrationFailure`` raised on step-size underflow.

``solve_lanes`` steps many independent systems ("lanes") together on one
time grid with the same DOP853 tableau and step-size controller, keeping
the error control per lane (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.10).  It reports a failure instead of raising, so its caller can retry
the lanes one at a time.  Every entry point uses rtol = atol = tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

from .errors import IntegrationFailure

DEFAULT_MAX_STEPS = 10_000_000


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-6], got {tol!r}")
    return tol


def solve_final(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from t0 to t1 and return y(t1)."""
    tol = _check_tol(tol)
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0:
        return y0.copy()
    solver = DOP853(rhs, t0, y0, t1, rtol=tol, atol=tol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        if steps > max_steps:
            raise IntegrationFailure(f"step cap {max_steps} exceeded at t={solver.t}")
    if solver.status == "failed":
        raise IntegrationFailure(f"step size underflow at t={solver.t}")
    return solver.y


def solve_sampled(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    tol: float,
    t_samples: np.ndarray,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> np.ndarray:
    """Integrate and evaluate the dense output on ``t_samples``.

    ``t_samples`` must be increasing and contained in [t0, t1].  Returns an
    array of shape (len(t_samples), len(y0)).
    """
    tol = _check_tol(tol)
    y0 = np.asarray(y0, dtype=float)
    t_samples = np.asarray(t_samples, dtype=float)
    out = np.empty((t_samples.size, y0.size))
    filled = 0
    if t_samples.size and t_samples[0] == t0:
        out[0] = y0
        filled = 1
    solver = DOP853(rhs, t0, y0, t1, rtol=tol, atol=tol)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        if steps > max_steps:
            raise IntegrationFailure(f"step cap {max_steps} exceeded at t={solver.t}")
        if solver.status == "failed":
            raise IntegrationFailure(f"step size underflow at t={solver.t}")
        hi = np.searchsorted(t_samples, solver.t, side="right")
        if hi > filled:
            dense = solver.dense_output()
            out[filled:hi] = dense(t_samples[filled:hi]).T
            filled = hi
    if filled < t_samples.size:
        # trailing samples equal t1 up to rounding of the final step
        out[filled:] = solver.y
    return out


_STAGES = _dop.N_STAGES
_A = _dop.A[:_STAGES, :_STAGES]
_B = _dop.B
_C = _dop.C[:_STAGES]
_E3 = _dop.E3
_E5 = _dop.E5
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class LaneSolution:
    """End of a lockstep integration.

    ``y`` has the shape of the initial state, one column per lane.
    ``steps`` counts accepted steps and ``rhs_evals`` calls of the
    right-hand side, each of which covers every lane.  ``failure`` is None,
    or the reason (step cap or underflow) the batch stopped early, in which
    case ``y`` is meaningless.
    """

    y: np.ndarray
    steps: int
    rhs_evals: int
    failure: str | None = None


def _rms(x: np.ndarray) -> np.ndarray:
    """Per-lane RMS norm over the components (axis 0)."""
    return np.sqrt(np.mean(x * x, axis=0))


def _initial_step(rhs, t0, y0, f0, span, tol) -> float:
    """scipy's starting-step rule (Hairer, Norsett & Wanner II.4) applied to
    every lane, taking the smallest trial and proposed steps; it calls
    ``rhs`` once."""
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = min(float(h0.min()), span)
        d2 = _rms((rhs(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
        dmax = np.maximum(d1, d2)
        h1 = np.where(dmax <= 1e-15, max(1e-6, h0 * 1e-3),
                      (0.01 / dmax) ** (-_ERROR_EXPONENT))
    return min(100.0 * h0, float(h1.min()), span)


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
    share every time point, so ``rhs`` is called with a scalar t and an
    (m, n) state.  Each lane's error is measured with scipy's DOP853 norm
    over its own m components, and a step is accepted only when the
    largest lane norm is below one, so every lane meets at least the
    tolerance it would be held to alone.  A non-finite lane norm rejects
    the step, as it does in scipy.
    """
    tol = _check_tol(tol)
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    y = np.array(y0, dtype=float)
    m = y.shape[0]
    K = np.empty((_STAGES + 1,) + y.shape)
    Kf = K.reshape(_STAGES + 1, -1)
    f = rhs(t0, y)
    h_abs = _initial_step(rhs, t0, y, f, t1 - t0, tol)
    nfev = 2
    t = t0
    steps = 0
    while t < t1:
        min_step = 10.0 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return LaneSolution(y, steps, nfev, f"step size underflow at t={t}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = h
            K[0] = f
            for s in range(1, _STAGES):
                K[s] = rhs(t + _C[s] * h, y + h * (_A[s, :s] @ Kf[:s]).reshape(y.shape))
            y_new = y + h * (_B @ Kf[:_STAGES]).reshape(y.shape)
            f_new = rhs(t + h, y_new)
            K[_STAGES] = f_new
            nfev += _STAGES
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err5 = np.sum(((_E5 @ Kf).reshape(y.shape) / scale) ** 2, axis=0)
            err3 = np.sum(((_E3 @ Kf).reshape(y.shape) / scale) ** 2, axis=0)
            # both sums vanish together only for an exact step, whose norm is 0
            denom = np.maximum(err5 + 0.01 * err3, _TINY)
            error_norm = float(np.max(h * err5 / np.sqrt(denom * m)))
            if error_norm < 1.0:
                factor = (MAX_FACTOR if error_norm == 0.0
                          else min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        steps += 1
        if steps > max_steps:
            return LaneSolution(y, steps, nfev, f"step cap {max_steps} exceeded at t={t}")
    return LaneSolution(y, steps, nfev)
