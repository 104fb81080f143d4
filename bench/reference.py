"""Reference values computed apart from ``hillduffing``.

Nothing here imports the library.  The monodromy trace is integrated from
the joint system

    y'' = -(y + y^3) / w,      xi'' = -(c + y^2) xi,      y(0) = delta, y'(0) = 0,

with scipy's ``solve_ivp`` at rtol = atol = 1e-12, over half the Duffing
period (the least period of y^2).  The period comes from a quadrature of
its defining integral, so no Jacobi function is involved.  The gamma
plane is (w, c) = (1, gamma); the omega plane and the beam's linearised
mode equation are (w, c) = (omega, omega).

The paper's figures that the workloads are checked against live here too.
"""

from __future__ import annotations

import math

from scipy.integrate import quad, solve_ivp

RTOL = 1e-12

# crossings recounted along delta at fixed omega (acceptance criterion 10)
PAPER_RECOUNTS = {1.5: 1, 4.0: 4}
# instability interval of the (1, 2) beam modes, +- 0.02
PAPER_BEAM_INTERVAL = (2.93, 3.45)
# delta-set certified by the phase-integral condition at omega = 4, +- 0.005
PAPER_CERTIFIED_OMEGA4 = ((0.0, 1.167), (1.277, 2.630))
# the first omega-plane tongue's upper edge tends to 3 as delta grows
LARGE_AMPLITUDE_UPPER_EDGE = 3.0


def half_period(delta: float, w: float) -> float:
    """Half the period of y'' = -(y + y^3)/w from y(0) = delta, y'(0) = 0.

    With y = delta sin(theta) the quarter period is
    int_0^{pi/2} sqrt(2 w) / sqrt(2 + delta^2 + delta^2 sin^2 theta) dtheta.
    """
    d2 = delta * delta
    quarter, _ = quad(lambda th: math.sqrt(2.0 * w / (2.0 + d2 + d2 * math.sin(th) ** 2)),
                      0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return 2.0 * quarter


def trace(delta: float, w: float, c: float) -> float:
    """Monodromy trace of xi'' + (c + y^2) xi = 0 over one period of y^2."""

    def rhs(t, s):
        y, v, x1, x1d, x2, x2d = s
        p = c + y * y
        return [v, -(y + y * y * y) / w, x1d, -p * x1, x2d, -p * x2]

    sol = solve_ivp(rhs, (0.0, half_period(delta, w)), [delta, 0.0, 1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=RTOL, atol=RTOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(sol.y[2, -1] + sol.y[5, -1])


def gamma_trace(delta: float, gamma: float) -> float:
    return trace(delta, 1.0, gamma)


def omega_trace(delta: float, omega: float) -> float:
    return trace(delta, omega, omega)


def gamma_regions(delta: float, gamma: float, margin: float) -> str | None:
    """Class the (delta, gamma) chart must show at a cell, from the exact
    lines gamma = 1, gamma = -delta^2/2 and gamma = 1 + delta^2/2.

    Returns None for cells within ``margin`` of a line or outside the
    three regions the lines decide.
    """
    half = 0.5 * delta * delta
    if -half + margin < gamma < 1.0 - margin:
        return "stable"
    if gamma < -half - margin:
        return "unstable"
    if 1.0 + margin < gamma < 1.0 + half - margin:
        return "unstable"
    return None


def parabolic_bounds(plane: str, ell: int, delta: float) -> tuple[float, float]:
    """Small-amplitude bounds of tongue ``ell`` >= 2, valid to O(delta^4)."""
    d2 = delta * delta
    if plane == "gamma":
        center = ell * ell + (0.75 * ell * ell - 0.5) * d2
        half = d2 / (math.pi * ell)
    else:
        center = ell + (0.375 * ell - 0.25) * d2
        half = d2 / (2.0 * math.pi * ell)
    return center - half, center + half


def classify(tr: float, band: float) -> str:
    if abs(tr) < 2.0 - band:
        return "stable"
    if abs(tr) > 2.0 + band:
        return "unstable"
    return "boundary"
