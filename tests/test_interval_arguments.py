"""``errors.require_in``, the one rule for real arguments confined to an
interval: every entry point that uses it rejects NaN, +-inf and the values
just outside each end with a ``DomainError`` led by the argument's name,
and accepts each closed end."""

import math

import pytest

from hillduffing import beam, tongues
from hillduffing.cli import main
from hillduffing.duffing import DuffingParams
from hillduffing.elliptic import complete_K, jacobi
from hillduffing.errors import DomainError, require_in
from hillduffing.hill import Plane, PeriodicCoefficient, classify_trace, lane_traces

INF = math.inf
PAIR = beam.ModePair(1, 2)


class Reached(Exception):
    """Raised by the first computation after an entry point's argument checks."""


@pytest.fixture(autouse=True)
def stop_after_checks(monkeypatch):
    """Cut the beam simulation, the tongue bracket and the crossing recount
    short once their arguments have passed, so accepting a value costs nothing."""
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(beam, "solve_sampled", reached)
    monkeypatch.setattr(tongues, "_seed_window", reached)
    monkeypatch.setattr(tongues, "_line", reached)


# name, call with the argument, interval ends and an interior value
CHECKS = [
    ("z_ratio", lambda v: beam.simulate(PAIR, 1.0, z_ratio=v), 0.0, 0.1, "(]", 1e-3),
    ("horizon", lambda v: beam.simulate(PAIR, 1.0, horizon=v), 0.0, INF, "()", 10.0),
    ("growth_factor", lambda v: beam.simulate(PAIR, 1.0, growth_factor=v), 1.0, INF, "()", 2.0),
    ("omega", lambda v: DuffingParams(1.0, v), 0.0, INF, "()", 4.0),
    ("k", complete_K, 0.0, 1.0, "[)", 0.5),
    ("k", lambda v: jacobi(0.5, v), 0.0, 1.0, "[)", 0.5),
    ("period", lambda v: PeriodicCoefficient(math.cos, v), 0.0, INF, "()", math.pi),
    ("tol_boundary", lambda v: classify_trace(1.0, v), 0.0, 2.0, "[)", 1e-4),
    ("tol", lambda v: lane_traces([1.0], [math.nan], 1.0, tol=v), 1e-12, 1e-6, "[]", 1e-10),
    ("tol", lambda v: lane_traces(1.0, math.nan, 1.0, tol=v), 1e-12, 1e-6, "[]", 1e-10),
    ("tol", lambda v: tongues.trace_at(Plane.OMEGA, 1.0, 1.5, tol=v), 1e-12, 1e-6, "[]", 1e-10),
    ("threshold", lambda v: tongues.trace_level_bracket(Plane.GAMMA, 1, 1.0, threshold=v),
     0.0, 2.0, "(]", 1.9),
    ("bisect_tol", lambda v: tongues.trace_level_bracket(Plane.GAMMA, 1, 1.0, bisect_tol=v),
     0.0, INF, "()", 1e-6),
    ("omega", tongues.asymptotic_classification, 0.0, INF, "()", 2.5),
    ("omega", tongues.crossing_count, 0.0, 7.0, "(]", 2.5),
    ("omega", tongues.recount_crossings, 0.0, INF, "()", 1.5),
    ("coarse_step", lambda v: tongues.recount_crossings(1.5, coarse_step=v), 0.0, INF, "()", 0.01),
    ("delta_max", lambda v: tongues.recount_crossings(1.5, delta_max=v), 0.0, INF, "[)", 6.0),
    ("near_band", lambda v: tongues.recount_crossings(1.5, near_band=v), 0.0, 2.0, "[)", 0.1),
]
IDS = [f"{check[0]}-{i}" for i, check in enumerate(CHECKS)]


def _outside(lo, hi, ends):
    """NaN, +-inf, each finite open end and the next float beyond each finite end."""
    values = [math.nan, -INF, INF]
    for end, bound, away in ((ends[0], lo, -INF), (ends[1], hi, INF)):
        if math.isfinite(bound):
            values.append(math.nextafter(bound, away))
            if end in "()":
                values.append(bound)
    return values


def _closed(lo, hi, ends):
    return [bound for end, bound in ((ends[0], lo), (ends[1], hi)) if end in "[]"]


def _accepts(call, value):
    try:
        call(value)
    except Reached:
        pass


@pytest.mark.parametrize("name, call, lo, hi, ends, inside", CHECKS, ids=IDS)
def test_rejects_values_outside_the_interval(name, call, lo, hi, ends, inside):
    for value in _outside(lo, hi, ends):
        with pytest.raises(DomainError, match=f"^{name} must lie in "):
            call(value)


@pytest.mark.parametrize("name, call, lo, hi, ends, inside", CHECKS, ids=IDS)
def test_accepts_each_closed_end_and_an_interior_value(name, call, lo, hi, ends, inside):
    for value in [inside, *_closed(lo, hi, ends)]:
        _accepts(call, value)


def test_message_names_the_interval_and_the_value():
    with pytest.raises(DomainError) as exc:
        require_in("x", 2.5, 0.0, 1.0, "(]")
    assert str(exc.value) == "x must lie in (0, 1], got 2.5"
    with pytest.raises(DomainError, match=r"^tol must lie in \[1e-12, 1e-06\], got nan$"):
        require_in("tol", math.nan, 1e-12, 1e-6, "[]")


@pytest.mark.parametrize("ends", ["()", "[)", "(]", "[]"])
def test_ends_decide_the_endpoints_and_nan_lies_in_none(ends):
    assert require_in("x", 0.5, 0.0, 1.0, ends) == 0.5
    for bound, end in ((0.0, ends[0]), (1.0, ends[1])):
        if end in "[]":
            assert require_in("x", bound, 0.0, 1.0, ends) == bound
        else:
            with pytest.raises(DomainError):
                require_in("x", bound, 0.0, 1.0, ends)
    with pytest.raises(DomainError):
        require_in("x", math.nan, -INF, INF, ends)


def test_returns_a_float():
    value = require_in("x", 1, 0.0, 2.0)
    assert type(value) is float and value == 1.0


def test_jacobi_argument_is_named():
    with pytest.raises(DomainError, match="^u must be finite"):
        jacobi(math.nan, 0.5)


def test_cli_scan_names_a_bad_tol(tmp_path, capsys):
    code = main(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0.5:1:2",
                 "--tol", "1", "--out", str(tmp_path / "s")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tol must lie in ")
    assert list(tmp_path.iterdir()) == []


def test_cli_beam_names_a_bad_z_ratio(capsys):
    code = main(["beam", "--m", "1", "--n", "2", "--delta", "1", "--z-ratio", "0.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: z_ratio must lie in ")
