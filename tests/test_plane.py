"""The chart plane: both planes are xi'' + (y + Theta^2) xi = 0 with Theta the
Duffing solution at frequency scale w = 1 (gamma) or w = omega (omega)."""

import math

import numpy as np
import pytest

import hillduffing
from hillduffing import criteria, elliptic, hill, tongues
from hillduffing.duffing import DuffingParams, period
from hillduffing.errors import DomainError
from hillduffing.hill import Plane


def test_one_plane_type():
    assert hill.Plane is tongues.Plane is criteria.Plane is hillduffing.Plane


@pytest.mark.parametrize("y", [-2.0, 0.0, 0.5, 3.0])
def test_scale(y):
    assert Plane.GAMMA.scale(y) == 1.0
    assert Plane.OMEGA.scale(y) == y


@pytest.mark.parametrize("delta, y", [(0.5, 2.0), (1.3, 0.7), (-2.0, 4.0)])
def test_params_at_the_scale(delta, y):
    assert Plane.GAMMA.params(delta, y) == DuffingParams(delta)
    assert Plane.OMEGA.params(delta, y) == DuffingParams(delta, y)


@pytest.mark.parametrize("plane, delta, y, name", [
    (Plane.GAMMA, 1.0, math.nan, "gamma"), (Plane.GAMMA, 1.0, math.inf, "gamma"),
    (Plane.GAMMA, 0.0, 1.0, "delta"), (Plane.GAMMA, 1e200, 1.0, "delta"),
    (Plane.OMEGA, 1.0, 0.0, "omega"), (Plane.OMEGA, 1.0, -2.0, "omega"),
    (Plane.OMEGA, 1.0, math.nan, "omega"), (Plane.OMEGA, math.inf, 2.0, "delta"),
])
def test_params_names_the_bad_argument(plane, delta, y, name):
    with pytest.raises(DomainError, match=f"^{name} must"):
        plane.params(delta, y)


def test_lane_pair_is_scale_times_offset_and_scale():
    ys = np.array([-1.0, 0.0, 0.5, 3.0])
    a, b = Plane.GAMMA.lane_pair(ys)
    assert a.tolist() == ys.tolist() and b.tolist() == [1.0] * 4
    a, b = Plane.OMEGA.lane_pair(ys)
    assert np.isnan(a[:2]).all() and np.isnan(b[:2]).all()
    assert a[2:].tolist() == [0.25, 9.0] and b[2:].tolist() == [0.5, 3.0]


@pytest.mark.parametrize("plane", list(Plane))
def test_coefficient_is_the_offset_plus_the_scaled_square(plane):
    delta, y = 1.3, 2.0
    params = plane.params(delta, y)
    p = plane.coefficient(delta, y)
    assert p.period == period(params) / 2.0
    assert (p.analytic_min, p.analytic_max) == (y, y + delta * delta)
    for t in (0.0, 0.4, 1.7):
        cn = elliptic.jacobi(params.argument_rate * t, params.modulus).cn
        assert p(t) == y + delta * delta * cn * cn


@pytest.mark.parametrize("delta, y", [(0.3, 0.5), (1.0, 3.0), (2.5, 7.0)])
def test_burdina_phase_integral_is_sqrt_scale_times_phi(delta, y):
    gamma = criteria.burdina_condition_gamma(delta, y).quantities["phase_integral"]
    omega = criteria.burdina_condition_omega(delta, y).quantities["phase_integral"]
    assert gamma == criteria.phi(delta, y)
    assert omega == math.sqrt(y) * criteria.phi(delta, y) == criteria.psi(delta, y)
    assert criteria.SquaredDuffing(Plane.GAMMA, delta, y).burdina() == \
        criteria.burdina_condition_gamma(delta, y)
    assert criteria.SquaredDuffing(Plane.OMEGA, delta, y).burdina() == \
        criteria.burdina_condition_omega(delta, y)
