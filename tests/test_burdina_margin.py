"""The closed-form phase-integral test holds its window by A's own error where
that exceeds the fixed round-off margin: at omega near 1e10 the quadrature's
error on A is far above 5e-11."""

import pytest

from hillduffing import Plane
from hillduffing.criteria import (
    Outcome,
    SquaredDuffing,
    burdina_condition_omega,
    phi,
    psi,
)

pytestmark = pytest.mark.filterwarnings("error")

# A - B sits one ulp of A (3.8e-6) inside the window, while the quadrature's
# error estimate of A is about 2.6e-4
_EDGE = (1.0, 1e10 + 1.04110338)


def test_error_of_a_is_not_certified():
    v = burdina_condition_omega(*_EDGE)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert v.note == "corrected phase integral leaves its window"


def test_criteria_map_cell_agrees():
    assert SquaredDuffing(Plane.OMEGA, *_EDGE).burdina().outcome is Outcome.INCONCLUSIVE


def test_phase_integrals_stay_floats():
    assert type(phi(1.0, 2.0)) is float
    assert type(psi(1.0, 2.0)) is float


@pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
def test_small_omega_keeps_its_certificates(delta):
    assert burdina_condition_omega(delta, 4.0).outcome is Outcome.GUARANTEED_STABLE
