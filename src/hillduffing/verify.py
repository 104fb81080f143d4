"""Named self-check suites behind the ``verify`` CLI command.

Each check evaluates one quantitative fact the library is supposed to
reproduce (special-function identities, the exact resonant lines, the
closed-form criterion identities, tongue geometry, the two-mode energy
transfer dichotomy) and reports measured against expected.  The pytest
suite is the authoritative gate; these checks are the quick, scriptable
subset.  A suite is a table of rows (name, measure, judge); ``run_suite``
calls each ``measure()`` once and ``judge`` turns the value into
(passed, measured text, expected text).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import beam, criteria, duffing, elliptic, hill, tongues


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: measured {self.measured}, expected {self.expected}"


def _near(target: float, tol: float):
    return lambda v: (abs(v - target) <= tol, f"{v:.12g}", f"{target:.12g} +- {tol:g}")


def _at_most(limit: str, label: str = ""):
    return lambda v: (v <= float(limit), f"{label}{v:.3g}", f"<= {limit}")


def _equals(want, shown: str | None = None):
    return lambda v: (v == want, str(v), want if shown is None else shown)


def _identity_residual() -> float:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        u = rng.uniform(-50.0, 50.0)
        k = rng.uniform(0.0, 0.71)
        sn, cn, dn = elliptic.jacobi(u, k)
        worst = max(worst,
                    abs(sn * sn + cn * cn - 1.0),
                    abs(dn * dn - k * k * cn * cn - (1.0 - k * k)))
    return worst


def suite_elliptic() -> list:
    quarter = functools.cache(lambda: elliptic.jacobi(elliptic.complete_K(0.3), 0.3))
    return [
        ("K(0) = pi/2", lambda: elliptic.complete_K(0.0), _near(math.pi / 2.0, 1e-15)),
        ("sqrt(2) sigma = K(1/sqrt 2)", lambda: math.sqrt(2.0) * elliptic.sigma_constant(),
         _near(elliptic.complete_K(1.0 / math.sqrt(2.0)), 1e-14)),
        ("jacobi(0, k) = (0, 1, 1)", lambda: tuple(elliptic.jacobi(0.0, 0.5)),
         _equals((0.0, 1.0, 1.0), "(0, 1, 1)")),
        ("sn at quarter period", lambda: quarter().sn, _near(1.0, 1e-12)),
        ("dn at quarter period", lambda: quarter().dn, _near(math.sqrt(1.0 - 0.09), 1e-12)),
        ("Jacobi identities (200 random points)", _identity_residual,
         _at_most("1e-10", "max residual ")),
    ]


def _trace(delta: float, gamma: float) -> float:
    return hill.monodromy(hill.squared_duffing_coefficient(delta, gamma), tol=1e-11).trace


def suite_exact_lines() -> list:
    points = [(delta, gamma, target, tag)
              for delta in (0.5, 1.0, 2.0)
              for gamma, target, tag in ((1.0, -2.0, "offset 1"),
                                         (1.0 + delta * delta / 2.0, -2.0, "upper parabola"),
                                         (-(delta * delta) / 2.0, 2.0, "lower parabola"))]
    delta, gamma, target = np.array([p[:3] for p in points]).T
    rows = [(f"trace at delta={d}, {tag}", functools.partial(_trace, d, g), _near(t, 1e-5))
            for d, g, t, tag in points]
    return rows + [(f"closed-form residual {kind.value}",
                    functools.partial(hill.exact_solution_residual, kind, 0.5,
                                      np.linspace(0.0, 4.0, 40)),
                    _at_most("1e-9"))
                   for kind in hill.ExactLine] + [
        # gamma-plane lanes are (a, b) = (gamma, 1)
        ("lane kernel on the exact lines",
         lambda: float(np.abs(hill.lane_traces(delta, gamma, 1.0).trace - target).max()),
         _at_most("1e-8", "max |error| ")),
        ("Wronskian residual of a 21x41 gamma block",
         lambda: hill.lane_traces(np.linspace(0.05, 3.0, 21)[:, None],
                                  np.linspace(-2.0, 6.0, 41), 1.0).det_residual,
         _at_most("1e-9")),
    ]


def suite_criteria() -> list:
    limit = (64.0 / 3.0) * elliptic.sigma_constant() ** 4
    rows = [(f"phi(delta={delta}, 2 + delta^2)",
             functools.partial(criteria.phi, delta, 2.0 + delta * delta),
             _near(math.sqrt(2.0) * math.pi, 1e-9))
            for delta in (0.5, 1.0, 3.0)]
    return rows + [
        ("phase-integral condition at (1, 3)",
         lambda: criteria.burdina_condition_gamma(1.0, 3.0).outcome.value,
         _equals("guaranteed_stable")),
        ("L^2 criterion at gamma = 0, delta = 1",
         lambda: criteria.li_zhang(hill.squared_duffing_coefficient(1.0, 0.0)).outcome.value,
         _equals("guaranteed_stable")),
        ("g(1) below its supremum", lambda: criteria.g_function(1.0),
         lambda g: (g < limit, f"{g:.9g}", f"< {limit:.9g}")),
        ("psi(1e-6, 2) -> 2 pi", lambda: criteria.psi(1e-6, 2.0), _near(2.0 * math.pi, 1e-5)),
        ("psi(1e4, 2) -> pi", lambda: criteria.psi(1e4, 2.0), _near(math.pi, 0.01 * math.pi)),
        ("psi = sqrt(omega) phi at (0.7, 2.3)", lambda: criteria.psi(0.7, 2.3),
         _near(math.sqrt(2.3) * criteria.phi(0.7, 2.3), 1e-11)),
    ]


def _parity() -> str:
    stable = tongues.AsymptoticClass.STABLE_AT_INFINITY
    ok = all((tongues.crossing_count(w) % 2 == 0)
             == (tongues.asymptotic_classification(w) is stable)
             for w in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5))
    return "consistent" if ok else "mismatch"


def _strip() -> str:
    grid = tongues.scan(tongues.Plane.OMEGA, (0.5, 3.0), (0.1, 0.9), (6, 5))
    return "all stable" if np.all(grid.classification == 0) else "non-stable cell found"


def suite_tongues() -> list:
    bracket = functools.cache(
        lambda: tongues.trace_level_bracket(tongues.Plane.GAMMA, 1, 1.0, threshold=2.0))
    return [
        ("first tongue lower boundary at delta = 1", lambda: bracket().lower, _near(1.0, 1e-4)),
        ("first tongue upper boundary at delta = 1", lambda: bracket().upper, _near(1.5, 1e-4)),
        ("asymptotic class of omega = 2", lambda: tongues.asymptotic_classification(2.0).value,
         _equals("unstable_at_infinity")),
        ("asymptotic class of omega = 4", lambda: tongues.asymptotic_classification(4.0).value,
         _equals("stable_at_infinity")),
        ("crossing parity matches asymptotic class", _parity, _equals("consistent")),
        ("strip omega < 1 scan all stable", _strip, _equals("all stable")),
    ]


def _energy_drift(pair: beam.ModePair, delta: float) -> float:
    horizon = 100.0 * duffing.period(duffing.DuffingParams(delta, pair.omega))
    result = beam.simulate(pair, delta, horizon=horizon, tol=1e-11)
    e = result.trajectory[:, 5]
    return float(np.max(np.abs(e - e[0])) / abs(e[0]))


def suite_beam() -> list:
    pair = beam.ModePair(1, 2)
    state = beam.BeamState(1.0, 0.0, 1.0, 0.0)
    return [
        ("two-mode energy at (1, 0, 1, 0)", lambda: beam.energy(pair, state),
         _near(14.75, 1e-12)),
        ("coupled rhs at (1, 0, 1, 0)", lambda: beam.coupled_rhs(pair, state),
         _equals((0.0, -6.0, 0.0, -36.0), "(0, -6, 0, -36)")),
        ("mode (1, 2) stable at delta = 0.5", lambda: beam.mode_stability(pair, 0.5).value,
         _equals("stable")),
        ("mode (1, 2) unstable at delta = 3.0", lambda: beam.mode_stability(pair, 3.0).value,
         _equals("unstable")),
        ("no transfer at delta = 2.92", lambda: beam.simulate(pair, 2.92).verdict.value,
         _equals("no_transfer_observed")),
        ("transfer at delta = 2.94", lambda: beam.simulate(pair, 2.94).verdict.value,
         _equals("energy_transfer")),
        ("onset at 3.44 later than at 3.01",
         lambda: [beam.simulate(pair, d).onset_time for d in (3.01, 3.44)],
         lambda t: (None not in t and t[1] > t[0], f"{t[0]} vs {t[1]}", "strictly later")),
        ("relative energy drift over 100 periods", functools.partial(_energy_drift, pair, 2.5),
         _at_most("1e-6")),
    ]


SUITES = {
    "elliptic": suite_elliptic,
    "exact-lines": suite_exact_lines,
    "criteria": suite_criteria,
    "tongues": suite_tongues,
    "beam": suite_beam,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or every suite for ``all``."""
    if name == "all":
        tables = list(SUITES.values())
    elif name in SUITES:
        tables = [SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    results = []
    for table in tables:
        for check, measure, judge in table():
            passed, measured, expected = judge(measure())
            results.append(CheckResult(check, bool(passed), measured, expected))
    return results
