"""The Hill-lane loop in Runge-Kutta-Nystrom form: its stage levels, the
recount lines against scipy's DOP853, and the cosine series of a whole
batch of deltas against the per-delta formula."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import DOP853

from hillduffing import Plane
from hillduffing.duffing import DuffingParams
from hillduffing.elliptic import complete_K
from hillduffing.hill import _cn2_series, lane_traces
from hillduffing.integrate import _LEVELS, _WEIGHTS
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
