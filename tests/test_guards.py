"""Argument guards: bad input raises a DomainError naming the argument,
and nothing that used to loop forever on a non-finite value hangs."""

import math
import signal

import numpy as np
import pytest
from scipy.integrate import quad

from hillduffing import tongues
from hillduffing.beam import ModePair, simulate
from hillduffing.cli import main
from hillduffing.criteria import (
    Outcome,
    SquaredDuffing,
    burdina_condition_gamma,
    burdina_condition_omega,
    li_zhang,
    phi,
    psi,
    zhukovskii,
)
from hillduffing.duffing import DuffingParams, valid_amplitude
from hillduffing.errors import DomainError, IntegrationFailure
from hillduffing.hill import (
    PeriodicCoefficient,
    classify_trace,
    lane_traces,
    mathieu_coefficient,
    monodromy,
    squared_duffing_coefficient,
)
from hillduffing.integrate import solve_final, solve_lanes
from hillduffing.tongues import (
    Plane,
    asymptotic_tongue_bounds,
    first_tongue_gamma,
    stability_strip_gamma,
    trace_level_bracket,
)


@pytest.fixture
def alarm():
    """Fail a call still running after 5 s instead of hanging the suite."""
    def on_alarm(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestNothingHangs:
    @pytest.mark.parametrize("a, q, name", [(math.nan, 1.0, "a"), (1.0, math.inf, "q")])
    def test_non_finite_mathieu(self, alarm, a, q, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            monodromy(mathieu_coefficient(a, q))

    def test_monodromy_of_nan_coefficient(self, alarm):
        p = PeriodicCoefficient(lambda t: math.nan, math.pi)
        with pytest.raises(IntegrationFailure, match="t0=0.0"):
            monodromy(p, max_steps=100)

    @pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
    def test_period_must_be_finite_and_positive(self, alarm, period):
        with pytest.raises(DomainError, match="period"):
            monodromy(PeriodicCoefficient(lambda t: 1.0, period), max_steps=100)

    def test_solve_final_nan_at_t0(self, alarm):
        with pytest.raises(IntegrationFailure, match="non-finite derivative at t0=0.5"):
            solve_final(lambda t, y: (math.nan,), 0.5, 1.0, (1.0,), 1e-10, max_steps=100)

    @pytest.mark.parametrize("t1", [1.0, 0.5])
    def test_solve_final_needs_t1_after_t0(self, t1):
        with pytest.raises(ValueError, match="t1 > t0"):
            solve_final(lambda t, y: (-y[0],), 1.0, t1, (1.0,), 1e-10)

    def test_solve_lanes_with_one_nan_lane(self, alarm):
        c = np.array([1.0, math.nan, 2.0])

        def rhs(t, y):
            u, v = y.reshape(2, -1)
            return np.concatenate((v, -c * u))

        sol = solve_lanes(rhs, 0.0, 1.0, np.outer((1.0, 0.0), np.ones(3)), 1e-10,
                          max_steps=100)
        assert sol.failure == "non-finite derivative at t0=0.0"
        assert sol.steps == 0


class TestAmplitudeRule:
    def test_array_and_scalar_agree_with_duffing_params(self):
        top = math.sqrt(np.finfo(float).max / 2.0)
        deltas = [0.0, -0.0, 1.0, -2.5, top, -top, math.nextafter(top, math.inf),
                  1e200, math.inf, -math.inf, math.nan]
        accepted = []
        for d in deltas:
            try:
                DuffingParams(d)
                accepted.append(True)
            except DomainError:
                accepted.append(False)
        assert accepted == [False, False, True, True, True, True, False,
                            False, False, False, False]
        assert valid_amplitude(np.array(deltas)).tolist() == accepted
        assert [bool(valid_amplitude(d)) for d in deltas] == accepted

    @pytest.mark.parametrize("plane, ell, delta", [
        (Plane.GAMMA, 1, math.nan), (Plane.OMEGA, 2, math.inf), (Plane.GAMMA, 2, 1e200),
    ])
    def test_bracket_rejects_delta_before_integrating(self, plane, ell, delta, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking delta")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="delta"):
            trace_level_bracket(plane, ell, delta)


@pytest.mark.parametrize("fn, args, name", [
    (classify_trace, (math.nan,), "trace"),
    (first_tongue_gamma, (math.nan,), "delta"),
    (asymptotic_tongue_bounds, (Plane.GAMMA, 2, math.nan), "delta"),
    (stability_strip_gamma, (math.nan, 0.5), "delta"),
    (stability_strip_gamma, (1.0, math.nan), "gamma"),
])
def test_nan_argument_is_named(fn, args, name):
    with pytest.raises(DomainError, match=name):
        fn(*args)


def test_paper_figures_excludes_tol_boundary(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--plane", "gamma", "--x", "0:3:4", "--y", "-2:6:4",
              "--paper-figures", "--tol-boundary", "0.1", "--out", str(tmp_path / "g")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestBracketArguments:
    @pytest.mark.parametrize("bisect_tol", [math.nan, 0.0, -1e-6, math.inf])
    def test_bad_bisect_tol_is_named(self, bisect_tol, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking bisect_tol")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="bisect_tol"):
            trace_level_bracket(Plane.GAMMA, 2, 0.2, bisect_tol=bisect_tol)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_too_few_samples_is_named(self, samples, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking samples")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="samples"):
            trace_level_bracket(Plane.GAMMA, 1, 1.0, samples=samples)

    @pytest.mark.parametrize("plane", list(Plane))
    @pytest.mark.parametrize("ell", [2.5, math.nan, math.inf])
    def test_non_integer_tongue_is_named(self, plane, ell):
        with pytest.raises(DomainError, match="ell"):
            asymptotic_tongue_bounds(plane, ell, 0.1)

    def test_integral_tongue_index_still_accepted(self):
        assert asymptotic_tongue_bounds(Plane.GAMMA, np.int64(2), 0.1) == \
            asymptotic_tongue_bounds(Plane.GAMMA, 2, 0.1)


class TestTimeDomainL2Overflow:
    """p^2 past the float range used to raise OverflowError from p(t) ** 2."""

    @pytest.mark.parametrize("p", [
        squared_duffing_coefficient(1.0, 1e200), mathieu_coefficient(1e200, 0.0),
        mathieu_coefficient(1e200, 1e199), mathieu_coefficient(1.33e154, 0.0),
    ], ids=["squared_duffing", "mathieu_constant", "mathieu", "mathieu_at_the_edge"])
    def test_is_inconclusive(self, p):
        v = li_zhang(p)
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.note == "L^2 bound not met"

    def test_matches_the_closed_form(self):
        assert li_zhang(squared_duffing_coefficient(1.0, 1e200)) == \
            SquaredDuffing(Plane.GAMMA, 1.0, 1e200).li_zhang()

    @pytest.mark.parametrize("p", [mathieu_coefficient(3.0, 0.5),
                                   squared_duffing_coefficient(2.5, 2.0)])
    def test_in_range_value_is_the_unscaled_quadrature(self, p):
        integral, _ = quad(lambda t: p(t) ** 2, 0.0, p.period, epsabs=1e-12, epsrel=1e-11,
                           limit=400)
        assert li_zhang(p).quantities["lhs"] == p.period**3 * integral


class TestHarmonicWindowOverflow:
    """A squared harmonic (l + 1)^2 pi^2 / T^2 past the float range used to
    raise OverflowError; it is inf, above every finite bound."""

    def test_time_domain(self):
        p = PeriodicCoefficient(lambda t: 1.0, math.pi / 1.4e154, analytic_min=1.0,
                                analytic_max=2.0)
        v = zhukovskii(p)
        assert v.outcome is Outcome.GUARANTEED_STABLE
        assert v.witness_ell == 0
        assert v.quantities["window_hi"] == math.inf

    def test_criteria_map_writes_every_cell(self, tmp_path, capsys):
        base = tmp_path / "z"
        assert main(["criteria-map", "--plane", "omega", "--x", "9e153:9.4e153:2",
                     "--y", "0.001:0.002:2", "--criteria", "zhukovskii",
                     "--out", str(base)]) == 0
        rows = (tmp_path / "z.csv").read_text().splitlines()
        assert rows[0] == "x,y,zhukovskii"
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["S"] * 4


class TestToleranceWithNoLiveLane:
    """A bad tol used to pass unchecked when no lane was left to integrate."""

    def test_lane_traces_raises(self):
        with pytest.raises(DomainError, match="tol"):
            lane_traces([0.5], [math.nan], [1.0], tol=5.0)

    @pytest.mark.parametrize("ys", ["-2:-1:2", "1:2:2"])
    def test_scan_exits_2_without_output(self, tmp_path, capsys, ys):
        code = main(["scan", "--plane", "omega", "--x", "0.5:1:2", "--y", ys,
                     "--tol", "1e-3", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "tol" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestClosedFormsPastTheAmplitudeRule:
    """From delta ~ 9.5e153 on, the phase integral used to be NaN after an
    IntegrationWarning, and the Burdina conditions then failed to convert it."""

    @pytest.mark.parametrize("fn", [phi, psi, burdina_condition_gamma, burdina_condition_omega])
    @pytest.mark.parametrize("delta", [1e154, 1e160, 1e200])
    def test_delta_is_named(self, fn, delta):
        assert not valid_amplitude(delta)
        with pytest.raises(DomainError, match="finite delta"):
            fn(delta, 2.0)

    @pytest.mark.parametrize("fn", [phi, psi])
    def test_largest_accepted_delta_has_a_phase_integral(self, fn):
        assert math.isfinite(fn(9e153, 2.0))


class TestBeamArguments:
    @pytest.mark.parametrize("m, n, name", [
        (math.nan, 2, "m"), (1.5, 2, "m"), (math.inf, 2, "m"),
        (1, math.nan, "n"), (1, 2.5, "n"), (1, math.inf, "n"),
    ])
    def test_non_integer_mode_number_is_named(self, m, n, name):
        with pytest.raises(DomainError, match=f"^mode number {name} "):
            ModePair(m, n)

    @pytest.mark.parametrize("samples", [2.5, math.nan, math.inf, 0])
    def test_bad_samples_is_named(self, samples):
        with pytest.raises(DomainError, match="samples"):
            simulate(ModePair(1, 2), 1.0, horizon=1.0, samples=samples)

    def test_integral_float_samples_accepted(self):
        assert simulate(ModePair(1, 2), 1.0, horizon=1.0, samples=3.0).trajectory.shape == (3, 6)


class TestHarmonicIndexNotFinite:
    """sqrt(min p) T / pi past the float range used to raise OverflowError,
    and a period so short that pi / T is inf gave a NaN window_lo."""

    def test_index_overflow_is_inconclusive(self):
        p = PeriodicCoefficient(lambda t: 1e300, 1e300, analytic_min=1e300,
                                analytic_max=1e300)
        v = zhukovskii(p)
        assert v.outcome is Outcome.INCONCLUSIVE
        assert "not finite" in v.note
        assert v.quantities == {"min_p": 1e300, "max_p": 1e300}

    def test_subnormal_period_window_starts_at_zero(self):
        p = PeriodicCoefficient(lambda t: 1.5, 1e-320, analytic_min=1.0, analytic_max=2.0)
        v = zhukovskii(p)
        assert v.outcome is Outcome.GUARANTEED_STABLE
        assert v.witness_ell == 0
        assert v.quantities["window_lo"] == 0.0
        assert v.quantities["window_hi"] == math.inf


class TestFractionalCounts:
    """A count that is not an integer used to build a grid past the range
    end, or fail inside numpy with a bare TypeError."""

    @pytest.mark.parametrize("count", [2.5, math.inf, math.nan])
    def test_axis_values_rejects(self, count):
        with pytest.raises(DomainError, match="resolution"):
            tongues.axis_values(0.0, 1.0, count)

    def test_axis_values_takes_integral_float(self):
        assert np.array_equal(tongues.axis_values(0.0, 1.0, 3.0),
                              tongues.axis_values(0.0, 1.0, 3))

    @pytest.mark.parametrize("resolution", [(2.5, 2), (2, math.inf)])
    def test_scan_rejects_before_integrating(self, resolution, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking the resolution")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="resolution"):
            tongues.scan(Plane.GAMMA, (0.5, 1.0), (0.0, 1.0), resolution)

    @pytest.mark.parametrize("samples", [2.5, math.inf, math.nan])
    def test_bracket_samples_rejected(self, samples, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking samples")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="samples"):
            trace_level_bracket(Plane.GAMMA, 2, 0.5, samples=samples)

    def test_bracket_takes_integral_float_samples(self):
        want = trace_level_bracket(Plane.GAMMA, 2, 0.5, threshold=2.0)
        assert trace_level_bracket(Plane.GAMMA, 2, 0.5, threshold=2.0, samples=257.0) == want
