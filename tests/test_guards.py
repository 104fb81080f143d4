"""Argument guards: bad input raises a DomainError naming the argument,
and nothing that used to loop forever on a non-finite value hangs."""

import math
import signal

import numpy as np
import pytest

from hillduffing import tongues
from hillduffing.cli import main
from hillduffing.duffing import DuffingParams, valid_amplitude
from hillduffing.errors import DomainError, IntegrationFailure
from hillduffing.hill import (
    PeriodicCoefficient,
    classify_trace,
    mathieu_coefficient,
    monodromy,
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
