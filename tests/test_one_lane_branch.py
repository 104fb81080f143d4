"""The one-lane branch of ``integrate.solve_hill_lanes``: c folded into the
stage weights, the first step and the error norm taken on floats.  A lane
duplicated into a two-lane batch runs the array path with two equal lane
norms, so it must take the same steps as the lane alone.  Also the overflow
gate of every attempt, F . F in one product before the exact tests."""

import math
import warnings

import numpy as np
import pytest

from hillduffing import Plane, integrate
from hillduffing.hill import _NPI, _cn2_series, lane_traces
from hillduffing.integrate import (
    _F_GATE,
    _F_SAFE,
    _STAGE_SUMS,
    _lane_error_norm,
    _lanes_first_step,
    _point_error_norm,
    _point_first_step,
    _stage_sums_overflow,
)
from hillduffing.tongues import trace_at


class TestAgainstTheArrayPath:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("y", [1.5, 2.25, 4.0])
    @pytest.mark.parametrize("delta", [0.2, 1.0, 3.1, 50.0])
    @pytest.mark.parametrize("plane", list(Plane))
    def test_lane_alone_and_duplicated(self, plane, delta, y, tol):
        a, b = plane.lane_pair([y])
        alone = lane_traces(delta, a, b, tol=tol)
        pair = lane_traces([delta, delta], np.repeat(a, 2), np.repeat(b, 2), tol=tol)
        assert (alone.steps, alone.rhs_evals) == (pair.steps, pair.rhs_evals)
        assert pair.trace[0] == pair.trace[1]
        # F = (c W) G against c (W G): equal up to rounding, relative to max(|trace|, 1)
        assert abs(alone.trace[0] - pair.trace[0]) <= 1e-14 * max(abs(pair.trace[0]), 1.0)
        # the point path, on floats from the start, gives the one-lane batch's bits
        assert trace_at(plane, delta, y, tol=tol) == alone.trace[0]

    @pytest.mark.parametrize("a, ends_as", [(-1e5, "inf"), (-1e6, "nan")])
    def test_lone_overflowing_lane_without_a_warning(self, a, ends_as):
        # u grows like exp(sqrt(-a) tau): it reaches inf at tau = 1, or
        # overflows while stepping until the step size underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lane_traces([1.0], [a], 1.0).trace[0]
        assert (math.isinf(got) if ends_as == "inf" else math.isnan(got)), got

    def test_lone_capped_lane(self):
        run = lane_traces(1.0, [900.0], 1.0, max_steps=20)
        assert run.steps == 21 and math.isnan(run.trace[0])


def _same_bits(got, want):
    return (math.isnan(got) and math.isnan(want)) or (
        got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def _norms(y, y_new, err, h, tol):
    """(float norm, array norm) of one lane with the lane loop's scale."""
    with np.errstate(all="ignore"):
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        want = _lane_error_norm(err, h, scale, 4)
    got = _point_error_norm(y.tolist(), [*y_new.tolist(), *err.ravel().tolist()], h, tol)
    return got, want


class TestFloatErrorNorm:
    """``_point_error_norm`` is ``_lane_error_norm(err, h, scale, 4)`` bit for bit."""

    def test_random_rows(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            y, y_new, err = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-14, 3, shape)
                             for shape in (4, 4, (2, 4)))
            h, tol = float(rng.uniform(1e-6, 1.0)), float(10.0 ** rng.uniform(-12, -6))
            got, want = _norms(y, y_new, err, h, tol)
            assert _same_bits(got, want), (got, want)

    @pytest.mark.parametrize("big", [1e200, -1e200, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["y", "y_new", "err5", "err3"])
    def test_rows_with_huge_and_non_finite_values(self, big, where):
        # 1e200 in an error sum squares past the float range (x ** 2 would
        # raise OverflowError), and a NaN in y or y_new reaches the scale
        # only if the maximum keeps it
        rng = np.random.default_rng(7)
        for at in range(4):
            y, y_new = rng.standard_normal(4), rng.standard_normal(4)
            err = 1e-9 * rng.standard_normal((2, 4))
            {"y": y, "y_new": y_new, "err5": err[0], "err3": err[1]}[where][at] = big
            got, want = _norms(y, y_new, err, 0.03, 1e-10)
            assert _same_bits(got, want), (got, want)

    def test_exact_step(self):
        got, want = _norms(np.ones(4), np.ones(4), np.zeros((2, 4)), 0.1, 1e-10)
        assert got == want == 0.0


def _start_rows():
    g = np.zeros((15, 2))  # the kernel's rows u, v, F_0 .. F_12 of one lane
    g[0, 0] = g[1, 1] = 1.0
    return g


class TestFloatFirstStep:
    """``_point_first_step`` is ``_lanes_first_step`` of one lane bit for bit."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-6])
    @pytest.mark.parametrize("delta, a, b", [
        (0.2, 4.1, 1.0), (3.0, 12.0, 3.0), (50.0, -2.0, 1.0), (1.0, -1e6, 1.0), (1e-9, 1.5, 1.0),
        (1.0, 1e300, 1e154),  # c(0) / tol overflows, so h0 is 0
    ])
    def test_series_coefficients(self, delta, a, b, tol):
        h, d = _cn2_series(delta)
        with np.errstate(over="ignore", invalid="ignore"):
            neg_a, nbd = -h * h * a, (-b * d)[:, None]

            def coef(taus):
                return neg_a + np.cos(np.multiply.outer(taus, _NPI)) @ nbd

            g_float, g_array = _start_rows(), _start_rows()
            got = _point_first_step(coef, g_float, tol)
            want = _lanes_first_step(coef, g_array, 1, tol)
        assert _same_bits(float(got), float(want)), (got, want)
        assert np.array_equal(g_float, g_array, equal_nan=True)

    @pytest.mark.parametrize("c0, c1", [
        (0.0, 0.0), (-1.0, -1.0), (3.7, -2.2), (-1e300, -1e300), (1e290, 5e289),
        (math.inf, 1.0), (math.nan, 1.0), (-1.0, math.inf),
    ])
    def test_constant_and_hostile_coefficients(self, c0, c1):
        rng = np.random.default_rng(11)
        for tol in 10.0 ** rng.uniform(-12, -6, 20):
            def coef(taus):
                return np.where(taus[:, None] == 0.0, c0, c1)

            with np.errstate(all="ignore"):
                g_float, g_array = _start_rows(), _start_rows()
                got = _point_first_step(coef, g_float, float(tol))
                want = _lanes_first_step(coef, g_array, 1, float(tol))
            assert _same_bits(float(got), float(want)), (c0, c1, tol, got, want)
            assert np.array_equal(g_float, g_array, equal_nan=True)


def _exact_overflow(f):
    """The overflow test before the gate: some |F| not below ``_F_SAFE`` and a
    stage sum that is not finite."""
    return not np.abs(f).max() < _F_SAFE and not np.isfinite(_STAGE_SUMS @ f).all()


class TestOverflowGate:
    """F . F < ``_F_GATE`` accepts a step's stage rows in one product; anything
    else falls through to the exact tests, so every decision is theirs."""

    @pytest.mark.parametrize("big", [1e150, 1e155, 1e200, 1e297, 1e299, 1e308,
                                     math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("lanes", [1, 2, 8])
    def test_rows_with_huge_and_non_finite_values(self, big, lanes):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((12, 2 * lanes))
        f[rng.integers(12), rng.integers(2 * lanes)] = big
        with np.errstate(over="ignore", invalid="ignore"):
            want = _exact_overflow(f)
            assert _stage_sums_overflow(f, f.ravel()) == _stage_sums_overflow(f, None) == want

    def test_lanes_past_the_gate_step_as_with_the_exact_tests(self, monkeypatch):
        # u grows like exp(sqrt(-a) tau) until its trace overflows: about 100
        # attempts have a largest |F| past sqrt(_F_GATE) = 1.3e154, which fails
        # the gate, yet below _F_SAFE
        seen = []

        def recorded(f, f_flat):
            with np.errstate(over="ignore"):
                seen.append((bool(f_flat.dot(f_flat) < _F_GATE), bool(np.abs(f).max() < _F_SAFE)))
            return _stage_sums_overflow(f, f_flat)

        def runs():
            return [lane_traces(1.0, -1e5, 1.0), lane_traces([1.0, 1.0], [-1e5, 0.5], 1.0)]

        monkeypatch.setattr(integrate, "_stage_sums_overflow", recorded)
        gated = runs()
        assert (False, True) in seen and (True, True) in seen
        monkeypatch.setattr(integrate, "_stage_sums_overflow", lambda f, f_flat: _exact_overflow(f))
        exact = runs()
        assert (exact[0].steps, exact[0].rhs_evals) == (1124, 13490)
        for got, want in zip(gated, exact):
            assert (got.steps, got.rhs_evals) == (want.steps, want.rhs_evals)
            assert np.array_equal(got.trace, want.trace)
