"""The elliptic layer and the lane kernel's cosine series against mpmath at
30 digits.  mpmath takes the parameter m = k^2, not the modulus k."""

import math

import numpy as np
import pytest

from hillduffing.duffing import DuffingParams
from hillduffing.elliptic import complete_K, jacobi
from hillduffing.hill import _NPI, _cn2_series

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30


def test_complete_K_matches_ellipk():
    ks = np.concatenate([[0.0, 1e-8, 1e-3], np.linspace(0.0, 0.999, 60)])
    worst = max(abs(complete_K(k) / float(mpmath.ellipk(mpmath.mpf(k) ** 2)) - 1.0)
                for k in ks)
    assert worst <= 1e-14


@pytest.mark.parametrize("u_max, bound", [(100.0, 1e-12), (1e3, 1e-11)])
def test_jacobi_matches_ellipfun(u_max, bound):
    rng = np.random.default_rng(11)
    worst = 0.0
    for u, k in zip(rng.uniform(-u_max, u_max, 150), rng.uniform(0.0, 1.0 / math.sqrt(2.0), 150)):
        m = mpmath.mpf(k) ** 2
        for got, name in zip(jacobi(u, k), ("sn", "cn", "dn")):
            worst = max(worst, abs(got - float(mpmath.ellipfun(name, mpmath.mpf(u), m=m))))
    assert worst <= bound


def test_lane_series_matches_cn_squared():
    """sum_n D_n cos(n pi tau) = h^2 delta^2 cn^2(K tau, k) on [0, 1]."""
    taus = np.linspace(0.0, 1.0, 17)
    worst = 0.0
    for delta in np.geomspace(1e-3, 200.0, 25):
        h, d = _cn2_series(float(delta))
        m = mpmath.mpf(DuffingParams(float(delta)).modulus) ** 2
        big_k = mpmath.ellipk(m)
        scale = (big_k / mpmath.sqrt(1 + mpmath.mpf(delta) ** 2)) ** 2 * mpmath.mpf(delta) ** 2
        assert h == pytest.approx(float(big_k) / math.sqrt(1.0 + delta * delta), rel=1e-14)
        for tau in taus:
            want = float(scale * mpmath.ellipfun("cn", big_k * tau, m=m) ** 2)
            got = float(d @ np.cos(_NPI * tau))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-13
