"""The closed-form criteria behind ``criteria-map`` against the time-domain
tests, and the two-mode right-hand side against its numpy-scalar formula."""

import itertools
import math

import numpy as np
import pytest

from hillduffing import criteria
from hillduffing.beam import BeamState, ModePair, _two_mode_rhs, coupled_rhs
from hillduffing.cli import _criteria_cell, main
from hillduffing.criteria import SquaredDuffing, g_function
from hillduffing.elliptic import sigma_constant
from hillduffing.errors import DomainError
from hillduffing.tongues import Plane

DELTAS = [0.01, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0]


class TestL2ClosedForm:
    @pytest.mark.parametrize("plane, offsets", [
        (Plane.GAMMA, [0.0, 0.3, 1.0, 4.0, 9.5]),
        (Plane.OMEGA, [0.05, 0.5, 1.0, 4.0, 7.0]),
    ])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_time_domain_quantity(self, plane, offsets, delta):
        for c in offsets:
            closed = SquaredDuffing(plane, delta, c).li_zhang()
            direct = criteria.li_zhang(plane.coefficient(delta, c))
            assert closed.quantities["lhs"] == pytest.approx(direct.quantities["lhs"], rel=1e-9)
            assert closed.outcome is direct.outcome, (delta, c)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_zero_offset_unscaled_is_g_function(self, delta):
        assert SquaredDuffing(Plane.GAMMA, delta, 0.0).li_zhang().quantities["lhs"] \
            == g_function(delta)

    @pytest.mark.parametrize("delta", [1e80, 1e150, 9e153])
    def test_huge_amplitude_does_not_overflow(self, delta):
        assert g_function(delta) == pytest.approx((64.0 / 3.0) * sigma_constant() ** 4,
                                                  rel=1e-12)

    @pytest.mark.parametrize("delta", [1e155, math.inf])
    def test_amplitude_without_a_period_is_named(self, delta):
        with pytest.raises(DomainError, match="delta"):
            g_function(delta)

    def test_huge_offset_is_inconclusive(self, tmp_path):
        out = tmp_path / "huge"
        assert main(["criteria-map", "--plane", "gamma", "--x", "1:2:2", "--y", "0:1e200:2",
                     "--criteria", "li-zhang", "--out", str(out)]) == 0
        rows = (tmp_path / "huge.csv").read_text().splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == ["S", "I", "S", "I"]

    def test_negative_amplitude_is_the_positive_one(self):
        for plane in Plane:
            a, b = SquaredDuffing(plane, -1.5, 2.0), SquaredDuffing(plane, 1.5, 2.0)
            for name in ("li_zhang", "zhukovskii", "burdina"):
                assert getattr(a, name)() == getattr(b, name)()

    @pytest.mark.parametrize("plane, delta, y", [
        (Plane.GAMMA, 0.0, 1.0), (Plane.GAMMA, 1.0, float("nan")),
        (Plane.OMEGA, 1.0, 0.0), (Plane.OMEGA, 1.0, -2.0), (Plane.OMEGA, float("inf"), 2.0),
    ])
    def test_rejects_what_the_coefficient_rejects(self, plane, delta, y):
        with pytest.raises(DomainError):
            plane.coefficient(delta, y)
        with pytest.raises(DomainError):
            SquaredDuffing(plane, delta, y)


def _time_domain_cell(plane, x, y, names):
    tests = {"li-zhang": criteria.li_zhang, "zhukovskii": criteria.zhukovskii,
             "burdina": criteria.burdina}
    try:
        p = plane.coefficient(x, y)
    except DomainError:
        return tuple("I" for _ in names)
    return tuple("S" if tests[n](p).guaranteed_stable else "I" for n in names)


@pytest.mark.parametrize("plane, ys", [
    (Plane.GAMMA, [-1.0, -0.25, 0.0, 0.4, 1.2, 3.0, 6.5]),
    (Plane.OMEGA, [-0.5, 0.0, 0.3, 1.0, 2.2, 4.0, 6.5]),
])
def test_criteria_cell_matches_time_domain_tests(plane, ys):
    names = ("li-zhang", "zhukovskii", "burdina")
    seen = set()
    for x, y in itertools.product([0.0, 0.05, 0.6, 1.3, 2.5, 4.0], ys):
        got = _criteria_cell((plane, x, y, names))
        assert got == _time_domain_cell(plane, x, y, names), (x, y)
        seen.update(got)
    assert seen == {"S", "I"}  # the grid must exercise both verdicts


def _numpy_scalar_rhs(pair, y):
    """The two-mode right-hand side on numpy float64 scalars."""
    m2, n2 = float(pair.m * pair.m), float(pair.n * pair.n)
    coupling = m2 * y[0] * y[0] + n2 * y[2] * y[2]
    return (y[1], -(m2 * m2 + m2 * coupling) * y[0],
            y[3], -(n2 * n2 + n2 * coupling) * y[2])


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 1)])
def test_two_mode_rhs_is_bit_identical_to_numpy_scalars(m, n):
    pair = ModePair(m, n)
    rhs = _two_mode_rhs(pair)
    rng = np.random.default_rng(2024 + 10 * m + n)
    for y in rng.normal(scale=[3.0, 10.0, 0.05, 0.5], size=(200, 4)):
        want = _hex(_numpy_scalar_rhs(pair, y))
        got = rhs(0.0, y)
        assert all(type(v) is float for v in got)
        assert _hex(got) == want
        state = BeamState(*y.tolist())
        assert _hex(coupled_rhs(pair, state)) == want
