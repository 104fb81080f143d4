"""The Hill-lane loop in Runge-Kutta-Nystrom form: its stage levels, its
initial step against scipy's, the bound on F below which no stage sum
overflows, the recount lines against scipy's DOP853, and the cosine series
of a whole batch of deltas against the per-delta formula."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate._ivp.common import select_initial_step

from hillduffing import Plane
from hillduffing.duffing import DuffingParams
from hillduffing.elliptic import complete_K
from hillduffing.hill import _NPI, _cn2_series, lane_traces
from hillduffing.integrate import _F_SAFE, _LEVELS, _STAGE_SUMS, _WEIGHTS, _lanes_first_step
from test_hill_lanes import _reference


class TestLevels:
    def test_six_levels_from_the_tableau(self):
        # stages 1-11 pair up as {1,2} .. {9,10} {11}; the step's end (stage
        # 12, tableau row B) uses no F of stage 11 and joins the last level
        assert _LEVELS == [(1, 3), (3, 5), (5, 7), (7, 9), (9, 11), (11, 13)]
        assert [s for s0, s1 in _LEVELS for s in range(s0, s1)] == list(range(1, 13))

    def test_a_level_uses_only_earlier_levels(self):
        for s0, s1 in _LEVELS:
            # rows U_s0 .. U_(s1-1); columns u, v, F_0 .. F_12
            assert not _WEIGHTS[:, s0 - 1:s1 - 1, 2 + s0:].any()
        # and each stage does use the level just before it
        for (p0, p1), (s0, s1) in itertools.pairwise(_LEVELS):
            assert _WEIGHTS[2, s0 - 1:s1 - 1, 2 + p0:2 + p1].any()

    def test_weights_are_the_squared_tableau(self):
        n = DOP853.n_stages
        a = np.zeros((n + 1, n + 1))
        a[:n, :n], a[n, :n] = DOP853.A, DOP853.B
        w0, w1, w2 = _WEIGHTS
        np.testing.assert_allclose(w2[:n, 2:], (a @ a)[1:], rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(w1[:n, 1], DOP853.C[1:].tolist() + [1.0], rtol=1e-13)
        np.testing.assert_array_equal(w0[:n, 0], 1.0)
        np.testing.assert_array_equal(w1[n, 2:], a[n])  # v_new = v + h B F


def _same_bits(got, want):
    return (math.isnan(got) and math.isnan(want)) or (
        got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def _first_steps(coef, tol):
    """(kernel, scipy) initial step of one lane from (u1, u2, u1', u2') =
    (1, 0, 0, 1), and the kernel's row F_0 after it."""
    g = np.zeros((15, 2))  # the kernel's rows u, v, F_0 .. F_12 of one lane
    g[0, 0] = g[1, 1] = 1.0
    y0 = g[:2].ravel().copy()

    def fun(t, y):
        return np.concatenate((y[2:], coef(np.full(1, t))[0] * y[:2]))

    got = _lanes_first_step(coef, g, 1, tol)
    want = select_initial_step(fun, 0.0, y0, 1.0, math.inf, fun(0.0, y0), 1.0,
                               DOP853.error_estimator_order, tol, tol)
    return float(got), float(want), g[2], coef(np.zeros(1))[0] * y0[:2]


class TestInitialStep:
    """``_lanes_first_step`` is scipy's ``select_initial_step`` bit for bit."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-6])
    @pytest.mark.parametrize("delta, a, b", [
        (0.2, 4.1, 1.0), (3.0, 12.0, 3.0), (50.0, -2.0, 1.0), (1.0, -1e6, 1.0), (1e-9, 1.5, 1.0),
        (1.0, 1e300, 1e154),  # c(0) / tol overflows, so h0 is 0
    ])
    def test_series_coefficients(self, delta, a, b, tol):
        h, d = _cn2_series(delta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            neg_a, nbd = -h * h * a, (-b * d)[:, None]

            def coef(taus):
                return neg_a + np.cos(np.multiply.outer(taus, _NPI)) @ nbd

            got, want, f0, c0_u = _first_steps(coef, tol)
        assert _same_bits(got, want), (got, want)
        assert np.array_equal(f0, c0_u, equal_nan=True)

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
                got, want, f0, c0_u = _first_steps(coef, float(tol))
            assert _same_bits(got, want), (c0, c1, tol, got, want)
            assert np.array_equal(f0, c0_u, equal_nan=True)


class TestStageSumBound:
    """Below ``_F_SAFE`` no stage sum A F can overflow, so the kernel's
    overflow test forms A F only for a step with some |F| at or past it."""

    @pytest.mark.parametrize("big", [1e150, 1e155, 1e200, 1e297, 1e299, 1e308,
                                     math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("lanes", [1, 2, 8])
    def test_rows_with_huge_and_non_finite_values(self, big, lanes):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((12, 2 * lanes))
        f[rng.integers(12), rng.integers(2 * lanes)] = big
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_STAGE_SUMS @ f).all()
        below = np.abs(f).max() < _F_SAFE
        assert below == (abs(big) < _F_SAFE)
        if below:
            assert finite
        if not math.isfinite(big):
            assert not finite

    def test_largest_rows_below_the_bound(self):
        # every |F| just below _F_SAFE, signed as the row of A with the
        # largest sum of |a|: that stage sum is the largest one can be
        worst = np.abs(_STAGE_SUMS).sum(axis=1).argmax()
        f = np.nextafter(_F_SAFE, 0.0) * np.sign(_STAGE_SUMS[worst])[:, None] * np.ones((1, 4))
        sums = _STAGE_SUMS @ f
        assert np.isfinite(sums).all() and np.abs(sums).max() <= 1e300
        assert 1e300 < np.abs(_STAGE_SUMS @ (f * 1e8)).max() < math.inf


@pytest.mark.parametrize("omega, steps, rhs_evals", [(1.5, 18, 218), (4.0, 33, 398)])
def test_recount_line_matches_scipy(omega, steps, rhs_evals):
    # the delta grid of tongues.recount_crossings, one batch at its tolerance
    deltas = np.arange(0.01, 6.0 + 0.005, 0.01)
    a, b = Plane.OMEGA.lane_pair([omega])
    got = lane_traces(deltas, a, b, tol=1e-12)
    trace, ref_steps, ref_rhs = _reference(deltas, a, b, tol=1e-12)
    assert (got.steps, got.rhs_evals) == (ref_steps, ref_rhs) == (steps, rhs_evals)
    np.testing.assert_allclose(got.trace, trace, rtol=1e-13, atol=1e-13)


def _cn2_series_one(delta):
    """The per-delta cosine series as ``lane_traces`` took it before the
    batch form: the reference the batch must match bit for bit."""
    k = DuffingParams(delta).modulus
    K = complete_K(k)
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    q = math.exp(-math.pi * complete_K(kp) / K) if kp < 1.0 else 0.0
    n = np.arange(1, 13)
    d = 4.0 * math.pi**2 * n * q**n / (1.0 - q ** (2 * n))
    h = K / math.sqrt(1.0 + delta * delta)
    return h, np.concatenate(([h * h * delta * delta - d.sum()], d))


@pytest.mark.parametrize("deltas", [
    np.geomspace(1e-12, 1e-3, 40),
    np.geomspace(1.0, 1e150, 40),
    -np.geomspace(1e-9, 1e6, 40),
    np.arange(0.01, 6.0 + 0.005, 0.01),
], ids=["tiny", "large", "negative", "recount"])
def test_cn2_series_batch_is_bitwise_the_scalar(deltas):
    h, d = _cn2_series(deltas)
    assert h.shape == deltas.shape and d.shape == (deltas.size, 13)
    for i, x in enumerate(deltas.tolist()):
        hx, dx = _cn2_series(x)
        assert type(hx) is float and hx == h[i]
        assert np.array_equal(dx, d[i])
        h1, d1 = _cn2_series_one(x)
        assert h1 == h[i] and np.array_equal(d1, d[i])
