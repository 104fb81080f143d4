"""Monodromy computation, coefficient constructors, and the closed-form
resonant solutions."""

import numpy as np
import pytest

from hillduffing.duffing import DuffingParams, period
from hillduffing.errors import DomainError, IntegrationFailure
from hillduffing.hill import (
    ExactLine,
    PeriodicCoefficient,
    Stability,
    classify_trace,
    exact_solution_residual,
    mathieu_coefficient,
    monodromy,
    omega_coefficient,
    squared_duffing_coefficient,
)

import oracles


class TestSquaredDuffingCoefficient:
    def test_value_at_origin(self):
        p = squared_duffing_coefficient(1.5, 0.7)
        assert p(0.0) == pytest.approx(0.7 + 1.5**2, abs=1e-12)

    def test_value_at_quarter_duffing_period(self):
        # y vanishes there, so p drops to its minimum gamma
        p = squared_duffing_coefficient(1.5, 0.7)
        assert p(period(DuffingParams(1.5)) / 4.0) == pytest.approx(0.7, abs=1e-12)

    def test_periodicity(self):
        p = squared_duffing_coefficient(1.3, 0.7)
        rng = np.random.default_rng(31)
        for t in rng.uniform(0.0, 20.0, 20):
            assert p(t + p.period) == pytest.approx(p(t), abs=1e-9)

    def test_bounds_hold_on_samples(self):
        p = squared_duffing_coefficient(2.0, -1.0)
        ts = np.linspace(0.0, p.period, 200)
        vals = [p(t) for t in ts]
        assert min(vals) >= p.analytic_min - 1e-12
        assert max(vals) <= p.analytic_max + 1e-12

    def test_rejects_zero_delta(self):
        with pytest.raises(DomainError):
            squared_duffing_coefficient(0.0, 1.0)


class TestOmegaCoefficient:
    def test_reduces_to_gamma_form_at_omega_one(self):
        pw = omega_coefficient(0.8, 1.0)
        pg = squared_duffing_coefficient(0.8, 1.0)
        rng = np.random.default_rng(32)
        for t in rng.uniform(0.0, 15.0, 20):
            assert pw(t) == pytest.approx(pg(t), abs=1e-10)
        assert pw.period == pytest.approx(pg.period, rel=1e-14)

    def test_value_at_origin(self):
        p = omega_coefficient(2.0, 4.0)
        assert p(0.0) == pytest.approx(8.0, abs=1e-12)

    def test_time_rescaling_to_gamma_form(self):
        # Theta_omega(t) equals the unscaled solution at t / sqrt(omega)
        pw = omega_coefficient(2.0, 4.0)
        pg = squared_duffing_coefficient(2.0, 4.0)
        assert pw(0.5) == pytest.approx(pg(0.25), abs=1e-11)


class TestMathieuCoefficient:
    def test_constant_limit_trace(self):
        tr = monodromy(mathieu_coefficient(1.0, 0.0)).trace
        assert tr == pytest.approx(oracles.mathieu_constant_trace(1.0), abs=1e-9)
        assert tr == pytest.approx(-2.0, abs=1e-9)

    def test_constant_quarter(self):
        report = monodromy(mathieu_coefficient(0.25, 0.0))
        assert report.trace == pytest.approx(0.0, abs=1e-9)
        assert report.classification is Stability.STABLE

    def test_first_tongue_point_unstable(self):
        report = monodromy(mathieu_coefficient(1.0, 0.1))
        assert report.classification is Stability.UNSTABLE


class TestMonodromy:
    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_exact_resonant_traces(self, delta):
        d2 = delta * delta
        for gamma, target in ((1.0, -2.0), (1.0 + d2 / 2.0, -2.0), (-d2 / 2.0, 2.0)):
            tr = monodromy(squared_duffing_coefficient(delta, gamma)).trace
            assert tr == pytest.approx(target, abs=1e-6)

    def test_determinant_and_multipliers_random(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            delta = rng.uniform(0.05, 5.0)
            gamma = rng.uniform(-5.0, 10.0)
            r = monodromy(squared_duffing_coefficient(delta, gamma))
            assert r.det_residual < 1e-8
            prod = r.multipliers[0] * r.multipliers[1]
            assert abs(prod - 1.0) < 1e-8
            ev = np.linalg.eigvals(r.matrix)
            assert sorted(ev.real.tolist()) == pytest.approx(
                sorted(m.real for m in r.multipliers), abs=1e-7)

    def test_tolerance_convergence(self):
        p = squared_duffing_coefficient(1.3, 2.7)
        tol = 1e-8
        t1 = monodromy(p, tol=tol).trace
        t2 = monodromy(p, tol=tol / 2.0).trace
        assert abs(t1 - t2) < 10.0 * tol

    def test_nonpositive_coefficient_unstable(self):
        for delta, gamma in [(1.0, -1.5), (2.0, -4.5), (0.5, -0.3)]:
            assert gamma <= -delta * delta
            r = monodromy(squared_duffing_coefficient(delta, gamma))
            assert r.classification is Stability.UNSTABLE

    def test_trace_invariant_under_time_shift(self):
        base = squared_duffing_coefficient(1.2, 0.8)
        for t0 in (0.3, 1.1):
            shifted = PeriodicCoefficient(
                func=lambda t, t0=t0: base(t + t0), period=base.period)
            assert monodromy(shifted).trace == pytest.approx(
                monodromy(base).trace, abs=1e-7)

    def test_step_cap_raises(self):
        p = squared_duffing_coefficient(1.0, 1.0)
        with pytest.raises(IntegrationFailure):
            monodromy(p, max_steps=5)

    @pytest.mark.parametrize("p, at", [
        (mathieu_coefficient(-1e5, 0.0), "2.1985609906172905"),
        (mathieu_coefficient(-1e6, 0.0), "0.6928128202008138"),
        (squared_duffing_coefficient(1.0, -1e5), "2.1985658315747925"),
    ])
    def test_overflow_raises_without_a_warning(self, p, at):
        # the solution overflows while stepping until the step size underflows;
        # the suite turns any numpy warning on the way into an error
        with pytest.raises(IntegrationFailure, match=f"^step size underflow at t={at}$"):
            monodromy(p)

    def test_tol_outside_contract_rejected(self):
        p = squared_duffing_coefficient(1.0, 1.0)
        with pytest.raises(ValueError):
            monodromy(p, tol=1e-3)


class TestClassifyTrace:
    def test_bands(self):
        assert classify_trace(0.0) is Stability.STABLE
        assert classify_trace(1.99985) is Stability.STABLE
        assert classify_trace(-2.00005) is Stability.BOUNDARY
        assert classify_trace(2.3) is Stability.UNSTABLE
        assert classify_trace(-2.3) is Stability.UNSTABLE

    def test_custom_band(self):
        assert classify_trace(1.985, tol_boundary=0.02) is Stability.BOUNDARY
        assert classify_trace(1.97, tol_boundary=0.02) is Stability.STABLE


class TestExactSolutionResidual:
    @pytest.mark.parametrize("kind,delta", [
        (ExactLine.CN_AT_GAMMA_ONE, 0.5),
        (ExactLine.SN_AT_PARABOLA, 1.0),
        (ExactLine.DN_AT_NEGATIVE_PARABOLA, 2.0),
    ])
    def test_residual_tiny(self, kind, delta):
        T = period(DuffingParams(delta))
        res = exact_solution_residual(kind, delta, np.linspace(0.0, T, 50))
        assert res < 1e-9
