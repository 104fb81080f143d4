"""One amplitude bound for every delta argument, and the lane path and the
phase-integral test without leaked warnings.

Every public entry point that takes an amplitude delta refuses nan, +-inf and
any |delta| past the bound of ``DuffingParams`` (2 (1 + delta^2) finite) with a
``DomainError`` naming delta, before any integration.  The tongue formulas keep
their values for every delta they accept, 0 and negative delta included."""

import json
import math
import warnings

import numpy as np
import pytest

from hillduffing import beam, hill, tongues
from hillduffing.beam import ModePair, mode_stability, simulate
from hillduffing.cli import main
from hillduffing.criteria import (burdina, burdina_condition_gamma, burdina_condition_omega,
                                  g_function, phi, psi)
from hillduffing.duffing import DuffingParams
from hillduffing.errors import DomainError, IntegrationFailure
from hillduffing.hill import Plane, lane_traces, omega_coefficient
from hillduffing.tongues import (StripVerdict, asymptotic_tongue_bounds, axis_values,
                                 first_tongue_gamma, scan, stability_strip_gamma, trace_at,
                                 trace_level_bracket)


class Integrated(Exception):
    """Raised by a patched integrator: the call got past its argument checks."""


def integrated(*args, **kwargs):
    raise Integrated


ENTRY_POINTS = {
    "first_tongue_gamma": lambda d: first_tongue_gamma(d),
    "stability_strip_gamma": lambda d: stability_strip_gamma(d, 0.5),
    "asymptotic_tongue_bounds gamma": lambda d: asymptotic_tongue_bounds(Plane.GAMMA, 2, d),
    "asymptotic_tongue_bounds omega": lambda d: asymptotic_tongue_bounds(Plane.OMEGA, 3, d),
    "trace_level_bracket gamma": lambda d: trace_level_bracket(Plane.GAMMA, 1, d),
    "trace_level_bracket omega": lambda d: trace_level_bracket(Plane.OMEGA, 2, d),
    "g_function": lambda d: g_function(d),
    "phi": lambda d: phi(d, 1.0),
    "psi": lambda d: psi(d, 2.0),
    "burdina_condition_gamma": lambda d: burdina_condition_gamma(d, 1.0),
    "burdina_condition_omega": lambda d: burdina_condition_omega(d, 2.0),
    "trace_at gamma": lambda d: trace_at(Plane.GAMMA, d, 1.0),
    "trace_at omega": lambda d: trace_at(Plane.OMEGA, d, 2.0),
    "mode_stability": lambda d: mode_stability(ModePair(1, 2), d),
    "simulate": lambda d: simulate(ModePair(1, 2), d),
    "DuffingParams": lambda d: DuffingParams(d),
}
HOSTILE = [math.nan, math.inf, -math.inf, 1e154, -1e154, 1e300, -1e300]


@pytest.mark.parametrize("delta", HOSTILE)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_delta_argument_refuses_past_the_bound(name, delta, monkeypatch):
    monkeypatch.setattr(tongues, "lane_traces", integrated)
    monkeypatch.setattr(hill, "solve_final", integrated)
    monkeypatch.setattr(beam, "solve_sampled", integrated)
    with pytest.raises(DomainError, match="delta"):
        ENTRY_POINTS[name](delta)


@pytest.mark.parametrize("name", ["trace_level_bracket gamma", "g_function"])
@pytest.mark.parametrize("delta", [0.0, -1.0, 1e154])
def test_positive_delta_entry_points_share_one_message(name, delta, monkeypatch):
    monkeypatch.setattr(tongues, "lane_traces", integrated)
    with pytest.raises(DomainError, match=r"^delta must lie in \(0, 9\.48075e\+153\], got "):
        ENTRY_POINTS[name](delta)


# (delta, first_tongue_gamma, gamma-plane bounds of tongue 2, omega-plane bounds of tongues 2, 3)
FORMULA_VALUES = [
    (0.0, (1.0, 1.0), (4.0, 4.0), (2.0, 2.0), (3.0, 3.0)),
    (5e-324, (1.0, 1.0), (4.0, 4.0), (2.0, 2.0), (3.0, 3.0)),
    (-1e-300, (1.0, 1.0), (4.0, 4.0), (2.0, 2.0), (3.0, 3.0)),
    (0.5, (1.0, 1.125), (4.585211264227026, 4.664788735772974),
     (2.105105632113513, 2.144894367886487), (3.2054870880756754, 3.2320129119243246)),
    (2.0, (1.0, 3.0), (13.363380227632419, 14.636619772367581),
     (3.6816901138162095, 4.3183098861837905), (6.287793409210806, 6.712206590789194)),
    (9e153, (1.0, 4.05e+307), None,
     (3.4054224804778237e+307, 4.694577519522177e+307),
     (6.657781653651883e+307, 7.517218346348118e+307)),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("delta, first, gamma2, omega2, omega3", FORMULA_VALUES)
def test_tongue_formulas_keep_their_values(sign, delta, first, gamma2, omega2, omega3):
    d = sign * delta
    assert first_tongue_gamma(d) == first
    if gamma2 is not None:  # at 9e153 the gamma-plane centre 4 + 2.5 delta^2 overflows
        assert asymptotic_tongue_bounds(Plane.GAMMA, 2, d) == gamma2
    assert asymptotic_tongue_bounds(Plane.OMEGA, 2, d) == omega2
    assert asymptotic_tongue_bounds(Plane.OMEGA, 3, d) == omega3


@pytest.mark.parametrize("delta", [0.0, 0.5, -0.5, 2.0, -2.0, 9e153, -9e153])
def test_strip_verdicts_keep_their_values(delta):
    edge = -delta * delta / 2.0
    assert stability_strip_gamma(delta, edge) is StripVerdict.OUTSIDE
    assert stability_strip_gamma(delta, edge - 1e-3 * (1.0 + delta * delta)) \
        is StripVerdict.UNSTABLE
    assert stability_strip_gamma(delta, 0.999) is StripVerdict.STABLE
    assert stability_strip_gamma(delta, 1.0) is StripVerdict.OUTSIDE
    assert stability_strip_gamma(delta, 0.0) is (StripVerdict.OUTSIDE if delta == 0.0
                                                 else StripVerdict.STABLE)


@pytest.mark.parametrize("lo, hi", [(3.0, 0.0), (1.0, 1.0), (math.nan, 1.0), (0.0, math.inf),
                                    (-math.inf, 0.0), (-1e308, 1e308)])
def test_axis_range_is_one_check_on_its_width(lo, hi):
    with pytest.raises(DomainError, match=r"^width of the range \(.*\) must lie in \(0, inf\)"):
        axis_values(lo, hi, 4)


def test_axis_range_message_names_both_ends():
    with pytest.raises(DomainError) as info:
        axis_values(3.0, 0.0, 4)
    assert str(info.value) == "width of the range (3.0, 0.0) must lie in (0, inf), got -3.0"


def test_failed_one_lane_batch_runs_once():
    """A batch of two or more still reruns each lane alone (``tests/test_hill_lanes.py``)."""
    run = lane_traces(1.0, [900.0], 1.0, max_steps=20)
    assert np.isnan(run.trace).all()
    assert run.steps == 21


class TestOverflowOnTheLanePath:
    """omega^2 in ``Plane.lane_pair`` and h^2 a in ``lane_traces`` overflow quietly."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_trace_at(self):
        with pytest.raises(IntegrationFailure):
            trace_at(Plane.OMEGA, 1.0, 2e154)

    def test_recount_crossings(self):
        with pytest.raises(IntegrationFailure):
            tongues.recount_crossings(1e154)

    def test_scan(self):
        grid = scan(Plane.OMEGA, (0.5, 1.0), (1.0, 1e160), (2, 2))
        assert grid.meta["failed_cells"] == 2
        assert np.isnan(grid.trace[:, 1]).all() and np.isfinite(grid.trace[:, 0]).all()

    def test_scan_command(self, tmp_path):
        out = tmp_path / "o"
        assert main(["scan", "--plane", "omega", "--x", "0.5:1:2", "--y", "1:1e160:2",
                     "--out", str(out)]) == 0
        config = json.loads((tmp_path / "o.meta.json").read_text())["config"]
        assert config["failed_cells"] == 2


def test_phase_integral_that_warns_is_inconclusive():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = burdina(omega_coefficient(1e8, 1e8))
    assert not verdict.guaranteed_stable
    assert verdict.note == "phase integral did not converge"


@pytest.mark.parametrize("argv, needle", [
    (["tongue-bracket", "--plane", "gamma", "--ell", "1", "--delta", "1e200"], "delta"),
    (["scan", "--plane", "gamma", "--x", "3:0:4", "--y", "0:1:2"], "width of the range"),
])
def test_hostile_cli_arguments_exit_2(argv, needle, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    assert needle in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
