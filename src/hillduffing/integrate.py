"""Embedded Runge-Kutta integration with a step cap, per system or in lanes.

Every entry point runs scipy's DOP853 through one step loop, which adds
the two behaviours the library contracts require and scipy's
``solve_ivp`` does not expose directly: a hard cap on the number of
accepted steps (so pathological coefficients cannot hang a computation)
and a failure reported on step-size underflow.

``solve_final`` and ``solve_sampled`` integrate one system and raise
``IntegrationFailure``.  ``solve_lanes`` steps many independent systems
("lanes") together on one time grid, keeping the error control per lane
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.10); it reports a
failure instead of raising, so its caller can retry the lanes one at a
time.  Every entry point uses rtol = atol = tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import DOP853

from .errors import IntegrationFailure

DEFAULT_MAX_STEPS = 10_000_000


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError(f"tolerance must lie in [1e-12, 1e-6], got {tol!r}")
    return tol


def _march(solver: DOP853, max_steps: int, on_step=None) -> tuple[int, str | None]:
    """Step ``solver`` to its end, calling ``on_step(solver)`` after each
    accepted step.  Returns the steps taken and None, or the reason the
    integration stopped early (step cap or underflow)."""
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        if steps > max_steps:
            return steps, f"step cap {max_steps} exceeded at t={solver.t}"
        if solver.status == "failed":
            return steps, f"step size underflow at t={solver.t}"
        if on_step is not None:
            on_step(solver)
    return steps, None


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
    _, failure = _march(solver, max_steps)
    if failure is not None:
        raise IntegrationFailure(failure)
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

    def fill(solver: DOP853) -> None:
        nonlocal filled
        hi = np.searchsorted(t_samples, solver.t, side="right")
        if hi > filled:
            dense = solver.dense_output()
            out[filled:hi] = dense(t_samples[filled:hi]).T
            filled = hi

    solver = DOP853(rhs, t0, y0, t1, rtol=tol, atol=tol)
    _, failure = _march(solver, max_steps, fill)
    if failure is not None:
        raise IntegrationFailure(failure)
    if filled < t_samples.size:
        # trailing samples equal t1 up to rounding of the final step
        out[filled:] = solver.y
    return out


_TINY = np.finfo(float).tiny


class _LaneDOP853(DOP853):
    """DOP853 over n lanes of m components held as one flat, component-major
    state (an (m, n) array raveled).  The error norm of a step is the
    largest of scipy's DOP853 norms taken over each lane's own m
    components."""

    def __init__(self, fun, t0, y0, t_bound, m, **options):
        self.lane_size = m
        super().__init__(fun, t0, y0, t_bound, **options)

    def _estimate_error_norm(self, K, h, scale):
        m = self.lane_size
        err5 = ((np.dot(K.T, self.E5) / scale).reshape(m, -1) ** 2).sum(axis=0)
        err3 = ((np.dot(K.T, self.E3) / scale).reshape(m, -1) ** 2).sum(axis=0)
        # both sums vanish together only for an exact step, whose norm is 0
        denom = np.maximum(err5 + 0.01 * err3, _TINY)
        return float((abs(h) * err5 / np.sqrt(denom * m)).max())


@dataclass(frozen=True)
class LaneSolution:
    """End of a lockstep integration.

    ``y`` has the shape of the initial state, one column per lane.
    ``steps`` counts steps, with the one that failed if any, and
    ``rhs_evals`` calls of the right-hand side, each of which covers every
    lane.  ``failure`` is None, or the reason (step cap or underflow) the
    batch stopped early, in which case ``y`` is meaningless.
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
    steps, failure = _march(solver, max_steps)
    return LaneSolution(solver.y.reshape(y0.shape), steps, solver.nfev, failure)
