"""Jobs that are one computation each, pinned bit for bit against the
algorithms they replaced (written out below, as ``_serial_walk`` is for the
tongue bracket's walk), and failures that are reported instead of leaking."""

import math
import warnings

import numpy as np
import pytest

from hillduffing import (
    BracketNotFound,
    DomainError,
    ExactLine,
    IntegrationFailure,
    Plane,
    complete_K,
    crossing_count,
    exact_solution_residual,
    jacobi,
    tongues,
    trace_level_bracket,
)
from hillduffing.cli import main
from hillduffing.duffing import DuffingParams
from hillduffing.hill import lane_traces
from hillduffing.tongues import trace_at

_EPS = 2.220446049250313e-16


def _agm_complete_K(k):
    """K(k) from its own AGM loop, stopped at |a - b| <= 4 eps a."""
    if k == 0.0:
        return math.pi / 2.0
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(64):
        if abs(a - b) <= 4.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _agm_jacobi(u, k):
    """(sn, cn, dn) from a second AGM loop, the descent stopped at |c| <= eps a,
    with the period from ``_agm_complete_K``."""
    if k == 0.0:
        return (math.sin(u), math.cos(u), 1.0)
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    ratios = []
    while abs(c) > _EPS * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    phi = ((2.0 ** len(ratios)) * a) * math.fmod(u, 4.0 * _agm_complete_K(k))
    for ratio in reversed(ratios):
        s = max(-1.0, min(1.0, ratio * math.sin(phi)))
        phi = 0.5 * (phi + math.asin(s))
    sn = math.sin(phi)
    return (sn, math.cos(phi), math.sqrt(1.0 - (k * sn) * (k * sn)))


def _bits(values):
    return [float(v).hex() for v in values]


def _moduli():
    rng = np.random.default_rng(20170517)
    edges = [0.0, 5e-324, 1e-300, 1e-16, _EPS, 1e-8, 0.5, 1.0 / math.sqrt(2.0),
             0.9, 1.0 - 1e-16, math.nextafter(1.0, 0.0)]
    return edges + rng.random(1500).tolist() + (10.0 ** rng.uniform(-300, 0, 500)).tolist()


def test_complete_K_is_the_separate_agm_loop_bit_for_bit():
    ks = _moduli()
    assert _bits(complete_K(k) for k in ks) == _bits(_agm_complete_K(k) for k in ks)


@pytest.mark.parametrize("u", [0.3, 7.1, -55.5])
def test_jacobi_is_the_separate_descent_bit_for_bit(u):
    for k in _moduli():
        assert _bits(jacobi(u, k)) == _bits(_agm_jacobi(u, k)), k


_OPEN_CLOSED_TABLE = (
    # (lo, hi, lo_closed, hi_closed, crossings)
    (0.0, 1.0, False, False, 0),
    (1.0, 2.0, False, True, 1),
    (2.0, 3.0, False, False, 3),
    (3.0, 3.0, True, True, 2),
    (3.0, 4.0, False, True, 4),
    (4.0, 5.0, False, True, 6),
    (5.0, 6.0, False, False, 8),
    (6.0, 6.0, True, True, 7),
    (6.0, 7.0, False, True, 9),
)


def _table_count(omega):
    """The crossing count from a table of open and closed omega intervals; None
    off the table."""
    for lo, hi, lo_closed, hi_closed, count in _OPEN_CLOSED_TABLE:
        above = omega >= lo if lo_closed else omega > lo
        below = omega <= hi if hi_closed else omega < hi
        if above and below:
            return count
    return None


@pytest.mark.parametrize("omega", [q / 4.0 for q in range(1, 29)]
                         + [0.0, 7.5, 1e-300, 2.999, 3.001, math.nextafter(6.0, 7.0)])
def test_crossing_count_matches_open_closed_table(omega):
    want = _table_count(omega)
    if want is None:  # omega = 1, or outside (0, 7]
        with pytest.raises(DomainError):
            crossing_count(omega)
    else:
        assert crossing_count(omega) == want


def _branch_residual(kind, delta, t_samples):
    """``exact_solution_residual`` with a branch on the line inside the sample loop."""
    params = DuffingParams(delta)
    k = params.modulus
    k2 = k * k
    rate = params.argument_rate
    s2 = rate * rate
    d2 = float(delta) * float(delta)
    gamma = {ExactLine.CN_AT_GAMMA_ONE: 1.0, ExactLine.SN_AT_PARABOLA: 1.0 + d2 / 2.0,
             ExactLine.DN_AT_NEGATIVE_PARABOLA: -d2 / 2.0}[kind]
    worst = 0.0
    for t in t_samples:
        sn, cn, dn = jacobi(rate * float(t), k)
        if kind is ExactLine.CN_AT_GAMMA_ONE:
            xi, xi_dd = cn, -s2 * cn * (dn * dn - k2 * sn * sn)
        elif kind is ExactLine.SN_AT_PARABOLA:
            xi, xi_dd = sn, -s2 * sn * (dn * dn + k2 * cn * cn)
        else:
            xi, xi_dd = dn, -s2 * k2 * dn * (cn * cn - sn * sn)
        p = gamma + d2 * cn * cn
        worst = max(worst, abs(xi_dd + p * xi))
    return worst


@pytest.mark.parametrize("kind", list(ExactLine))
@pytest.mark.parametrize("delta", [1e-6, 0.3, 1.0, 4.7, 80.0])
def test_exact_residual_matches_branching_loop(kind, delta):
    ts = np.linspace(-3.0, 40.0, 173)
    got = exact_solution_residual(kind, delta, ts)
    assert got.hex() == _branch_residual(kind, delta, ts).hex()


class TestReportedFailures:
    def test_omega_walk_to_the_floor_is_not_found(self):
        # |trace| -> 2 > threshold as omega -> 0, so the clipped floor has no sign change
        with pytest.raises(BracketNotFound, match="floor is 1e-09"):
            trace_level_bracket(Plane.OMEGA, 2, 200.0)

    def test_cli_prints_not_found_at_the_omega_floor(self, capsys):
        code = main(["tongue-bracket", "--plane", "omega", "--ell", "2", "--delta", "200"])
        assert code == 0
        assert capsys.readouterr().out.startswith("NOT FOUND: ")

    def test_domain_error_in_the_bisection_passes_through(self, monkeypatch):
        def bisect(f, a, b, xtol):
            raise DomainError("bad point")

        monkeypatch.setattr(tongues, "brentq", bisect)
        with pytest.raises(DomainError, match="bad point"):
            trace_level_bracket(Plane.GAMMA, 2, 0.5)

    @pytest.mark.parametrize("ell", [0, -1, 1.5, math.nan, math.inf])
    def test_bad_ell_is_named(self, ell):
        with pytest.raises(DomainError, match="ell must be an integer >= 1"):
            trace_level_bracket(Plane.GAMMA, ell, 0.5)

    def test_integration_failure_exits_2(self, capsys):
        code = main(["beam", "--m", "1", "--n", "2", "--delta", "1e150", "--horizon", "1e-3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_lane_is_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = lane_traces([1.0, 0.5], [1e300, 1.0], 1.0)
            alone = lane_traces([0.5], [1.0], 1.0)
            with pytest.raises(IntegrationFailure):
                trace_at(Plane.OMEGA, 1.0, 1e154)
        assert math.isnan(mixed.trace[0])
        assert mixed.trace[1].hex() == alone.trace[0].hex()
