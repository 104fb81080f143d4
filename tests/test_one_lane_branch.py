"""The one-lane branch of ``integrate.solve_hill_lanes``: c folded into the
stage weights and the error norm taken on floats.  A lane duplicated into a
two-lane batch runs the array path with two equal lane norms, so it must
take the same steps as the lane alone."""

import math
import warnings

import numpy as np
import pytest

from hillduffing import Plane
from hillduffing.hill import lane_traces
from hillduffing.integrate import _lane_error_norm, _point_error_norm


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
