"""Integer arguments through ``errors.require_count``, lane batches of any
shape, and criteria cells whose phase integral overflows."""

import math
import warnings

import numpy as np
import pytest

from hillduffing import (
    DomainError,
    ModePair,
    Plane,
    asymptotic_tongue_bounds,
    beam,
    burdina_condition_gamma,
    errors,
    hill,
    monodromy,
    scan,
    simulate,
    squared_duffing_coefficient,
    tongues,
    trace_level_bracket,
)
from hillduffing.cli import main
from hillduffing.criteria import Outcome, burdina
from hillduffing.hill import lane_traces

HUGE = 10**400


def _bad_counts(minimum):
    """Every kind of value that ``require_count(name, value, minimum)`` rejects."""
    return [HUGE, 2**53 + 1, math.nan, math.inf, 2.5, minimum - 1]


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran before the count was checked")

    monkeypatch.setattr(module, name, forbidden)


def _rejects_all(call, message, minimum):
    """``call(value)`` raises a ``DomainError`` starting with ``message`` for
    every value of ``_bad_counts(minimum)``."""
    for value in _bad_counts(minimum):
        with pytest.raises(DomainError, match=f"^{message}"):
            call(value)


class TestRequireCount:
    def test_rejects(self):
        _rejects_all(lambda v: errors.require_count("count", v, 2),
                     "count must be an integer >= 2", 2)

    def test_returns_an_int_up_to_two_to_the_53(self):
        for value, want in [(2**53, 2**53), (float(2**53), 2**53), (3.0, 3), (np.int64(7), 7)]:
            got = errors.require_count("count", value, 1)
            assert got == want and type(got) is int


class TestEverySite:
    """Each integer argument is checked before any lane or integration runs."""

    @pytest.fixture(autouse=True)
    def no_integration(self, monkeypatch):
        _forbid(monkeypatch, tongues, "lane_traces")
        _forbid(monkeypatch, beam, "solve_sampled")

    def test_axis_resolution(self):
        message = "resolution must be an integer >= 2"
        _rejects_all(lambda v: tongues.axis_values(0.0, 1.0, v), message, 2)
        _rejects_all(lambda v: scan(Plane.GAMMA, (0.5, 1.0), (0.0, 1.0), (2, v)), message, 2)

    def test_workers(self):
        message = "workers must be an integer >= 1"
        _rejects_all(lambda v: tongues.map_cells(abs, [], v), message, 1)
        _rejects_all(lambda v: scan(Plane.GAMMA, (0.5, 1.0), (0.0, 1.0), (2, 2), workers=v),
                     message, 1)

    @pytest.mark.parametrize("plane", list(Plane))
    def test_bracket_ell(self, plane):
        _rejects_all(lambda v: trace_level_bracket(plane, v, 0.2),
                     "ell must be an integer >= 1", 1)

    def test_bracket_samples(self):
        _rejects_all(lambda v: trace_level_bracket(Plane.GAMMA, 2, 0.2, samples=v),
                     "samples must be an integer >= 2", 2)

    @pytest.mark.parametrize("plane", list(Plane))
    def test_parabolic_bounds_ell(self, plane):
        _rejects_all(lambda v: asymptotic_tongue_bounds(plane, v, 0.1),
                     "ell must be an integer >= 2", 2)

    def test_simulate_samples(self):
        _rejects_all(lambda v: simulate(ModePair(1, 2), 1.0, horizon=1.0, samples=v),
                     "samples must be an integer >= 1", 1)

    def test_mode_numbers(self):
        _rejects_all(lambda v: ModePair(v, 2), "mode number m must be an integer >= 1", 1)
        _rejects_all(lambda v: ModePair(1, v), "mode number n must be an integer >= 1", 1)

    def test_max_steps(self, monkeypatch):
        # NaN used to lift the step cap, -5 to fail as "step cap -5 exceeded"
        _forbid(monkeypatch, hill, "solve_hill_lanes")
        _forbid(monkeypatch, hill, "solve_final")
        coefficient = squared_duffing_coefficient(1.0, 0.5)
        message = "max_steps must be an integer >= 1"
        for call in (lambda v: lane_traces(1.0, [1.5], 1.0, max_steps=v),
                     lambda v: lane_traces(1.0, 1.5, 1.0, max_steps=v),
                     lambda v: monodromy(coefficient, max_steps=v)):
            _rejects_all(call, message, 1)  # NaN, 0 and 2.5 among them
            with pytest.raises(DomainError, match=f"^{message}"):
                call(-5)

    def test_workers_variable(self, tmp_path, capsys, monkeypatch):
        for env in (str(HUGE), str(2**53 + 1)):
            monkeypatch.setenv("HILLDUFFING_WORKERS", env)
            code = main(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0:1:2",
                         "--out", str(tmp_path / "s")])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                "error: HILLDUFFING_WORKERS must be an integer >= 1")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["tongue-bracket", "--plane", "gamma", "--ell", str(HUGE), "--delta", "0.2"],
                 "ell must be an integer >= 1", id="tongue-bracket"),
    pytest.param(["beam", "--m", "1", "--n", str(HUGE), "--delta", "1"],
                 "mode number n must be an integer >= 1", id="beam"),
    pytest.param(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", f"0:1:{HUGE}",
                  "--out", "s"], "resolution must be an integer >= 2", id="scan"),
])
def test_huge_integer_on_the_command_line_exits_2(argv, message, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


class TestLaneShapes:
    """``lane_traces`` broadcasts in any shape and runs the flat lanes as the
    1-D batch of the same points in C order."""

    @pytest.mark.parametrize("delta, a", [
        (0.7, 2.5),
        (np.array([[0.5], [1.0], [1.5], [2.0]]), 2.5),
        (1.2, np.array([[-0.5, 0.5, 2.5, 6.0]])),
        (np.array([[0.5, 1.0], [1.5, 2.0]]), np.array([0.5, 3.0])),
    ], ids=["0-d", "4x1", "1x4", "2x2"])
    def test_broadcast_shape_is_bit_identical_to_the_flat_run(self, delta, a):
        shape = np.broadcast_shapes(np.shape(delta), np.shape(a))
        got = lane_traces(delta, a, 1.0)
        flat = lane_traces(np.broadcast_to(delta, shape).ravel(),
                           np.broadcast_to(a, shape).ravel(), 1.0)
        assert got.trace.shape == shape
        assert got.trace.ravel().tolist() == flat.trace.tolist()
        assert (got.steps, got.rhs_evals) == (flat.steps, flat.rhs_evals)

    def test_dead_lanes_keep_their_place(self):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = lane_traces(delta, np.array([[2.5, 2.5], [math.nan, 2.5]]), 1.0)
        assert np.isnan(got.trace).tolist() == [[True, False], [True, True]]
        assert got.trace[0, 1] == lane_traces([1.0], [2.5], 1.0).trace[0]


class TestBurdinaPhaseOverflow:
    """A phase integral past the float range used to raise OverflowError from
    floor(A / pi)."""

    def test_closed_form_is_inconclusive(self):
        v = burdina_condition_gamma(9e153, 1e308)
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.note == "phase integral is not finite"
        assert v.quantities["phase_integral"] == math.inf

    def test_time_domain_is_inconclusive(self):
        v = burdina(squared_duffing_coefficient(9e153, 1e308))
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.note == "phase integral is not finite"

    def test_criteria_map_writes_inconclusive_cells(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["criteria-map", "--plane", "gamma", "--x", "9e153:9.4e153:2",
                         "--y", "1e308:1.7e308:2", "--criteria", "burdina",
                         "--out", str(tmp_path / "b")])
        assert code == 0
        rows = (tmp_path / "b.csv").read_text().splitlines()
        assert rows[0] == "x,y,burdina"
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["I"] * 4


def test_first_tongue_bracket_at_huge_amplitude_ends_on_the_level():
    """The ell = 1 bracket at delta = 1e100 (lower -3.48e195, upper 5.0e199)
    is no fault: the trace there moves by about 1e-4 across gamma in
    (-3.5e195, 1), and both ends read the level 2 - 1e-4."""
    threshold = 2.0 - 1e-4
    for gamma in (-3.4826847314123605e195, 5.0004931772821375e199):
        trace = tongues.trace_at(Plane.GAMMA, 1e100, gamma)
        assert abs(abs(trace) - threshold) <= 1e-8
