"""``asymptotic_tongue_bounds`` returns finite bounds or raises a
``DomainError`` naming delta, also for a delta the amplitude bound accepts."""

import math
import re

import pytest

from hillduffing import DomainError, Plane
from hillduffing.tongues import asymptotic_tongue_bounds


@pytest.mark.parametrize("plane, ell, delta", [
    (Plane.GAMMA, 2, 9e153), (Plane.GAMMA, 2, -9e153), (Plane.GAMMA, 2, 8.4e153),
    (Plane.OMEGA, 7, 9e153), (Plane.OMEGA, 7, -9e153), (Plane.GAMMA, 2**40, 1e150),
])
def test_an_overflowing_bound_names_delta(plane, ell, delta):
    want = rf"^upper bound of tongue {ell} at delta = {re.escape(repr(delta))} must be finite"
    with pytest.raises(DomainError, match=want):
        asymptotic_tongue_bounds(plane, ell, delta)


@pytest.mark.parametrize("plane, ell, delta", [
    (Plane.GAMMA, 2, 8e153), (Plane.OMEGA, 2, 9e153), (Plane.OMEGA, 6, 9e153),
    (Plane.GAMMA, 2**53, 1.0),
])
def test_bounds_up_to_the_overflow_stay_finite(plane, ell, delta):
    lo, hi = asymptotic_tongue_bounds(plane, ell, delta)
    assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi
