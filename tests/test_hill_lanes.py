"""The linear Hill-lane loop (``integrate.solve_hill_lanes`` under
``hill.lane_traces``) against scipy's DOP853 on the cosine-series
right-hand side (``integrate.solve_lanes``), its Wronskian residual, and
the margin of the harmonic-window test."""

import json
import math

import numpy as np
import pytest

from hillduffing import Plane, scan, verify
from hillduffing.cli import main
from hillduffing.criteria import Outcome, zhukovskii
from hillduffing.duffing import valid_amplitude
from hillduffing.hill import (
    DEFAULT_TOL,
    _NPI,
    _cn2_series,
    lane_traces,
    mathieu_coefficient,
)
from hillduffing.integrate import DEFAULT_MAX_STEPS, solve_lanes


def _reference(delta, a, b, tol=DEFAULT_TOL, max_steps=DEFAULT_MAX_STEPS):
    """``lane_traces`` on scipy's DOP853: the cosine-series right-hand side
    over rows u1, u1', u2, u2', the same dead lanes and the same lane-by-lane
    rerun after a failure.  Returns (trace, steps, rhs_evals)."""
    delta, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta, a, b)))
    trace = np.full(a.shape, math.nan)
    delta, a, b = delta.ravel(), a.ravel(), b.ravel()
    live = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & valid_amplitude(delta))
    h, d = (np.array(v) for v in zip(*(_cn2_series(x) for x in delta[live].tolist())))
    neg_a, neg_bd = -h * h * a[live], -b[live, None] * d

    def solve(lanes):
        na, nbd = neg_a[lanes], neg_bd[lanes]

        def rhs(tau, y):
            f = np.empty_like(y)
            y4, f4 = y.reshape(4, -1), f.reshape(4, -1)
            f4[0::2] = y4[1::2]
            np.multiply(na + nbd @ np.cos(_NPI * tau), y4[0::2], out=f4[1::2])
            return f

        sol = solve_lanes(rhs, 0.0, 1.0, np.outer((1.0, 0.0, 0.0, 1.0), np.ones(na.size)),
                          tol, max_steps)
        if sol.failure is None:
            u1, du1, u2, du2 = sol.y
            trace.flat[live[lanes]] = 2.0 * (u1 * du2 + du1 * u2)
        return sol

    with np.errstate(over="ignore", invalid="ignore"):
        runs = [solve(slice(None))]
        if runs[0].failure is not None:
            runs += [solve(slice(i, i + 1)) for i in range(live.size)]
    return trace, sum(r.steps for r in runs), sum(r.rhs_evals for r in runs)


def _assert_same_run(delta, a, b, **kwargs):
    got = lane_traces(delta, a, b, **kwargs)
    trace, steps, rhs_evals = _reference(delta, a, b, **kwargs)
    assert (got.steps, got.rhs_evals) == (steps, rhs_evals)
    assert np.array_equal(np.isnan(got.trace), np.isnan(trace))
    # relative to max(|trace|, 1): a trace near 0 is as exact as one near 1
    np.testing.assert_allclose(got.trace, trace, rtol=1e-13, atol=1e-13)
    return got


class TestAgainstScipyDOP853:
    """Same steps, same right-hand-side count, traces within rounding."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("y", [1.5, 2.25, 4.0])
    @pytest.mark.parametrize("delta", [0.2, 1.0, 3.1, 50.0])
    @pytest.mark.parametrize("plane", list(Plane))
    def test_one_lane(self, plane, delta, y, tol):
        _assert_same_run(delta, *plane.lane_pair([y]), tol=tol)

    def test_gamma_block(self):
        ys = np.linspace(-2.0, 6.0, 41)
        _assert_same_run(np.linspace(0.05, 3.0, 21)[:, None], *Plane.GAMMA.lane_pair(ys))

    def test_omega_block(self):
        ys = np.linspace(0.05, 7.0, 41)
        _assert_same_run(np.linspace(0.05, 5.0, 26)[:, None], *Plane.OMEGA.lane_pair(ys))

    def test_dead_lanes(self):
        got = _assert_same_run([0.5, 0.0, 1.0, math.nan, 2.0, 1e200, 3.0], 1.5, 1.0)
        assert np.isnan(got.trace[[1, 3, 5]]).all()

    def test_non_finite_start_reruns_every_lane(self):
        # h^2 a overflows in the second lane: the batch fails at t0, the lanes
        # are run alone, and only that one is NaN
        got = _assert_same_run([1.0, 2.0, 1.5], [0.5, 1e308, 2.0], 1.0)
        assert np.isnan(got.trace).tolist() == [False, True, False]

    def test_overflow_while_stepping_reruns_every_lane(self):
        # u grows like exp(1000 tau) in the second lane and overflows before tau = 1
        got = _assert_same_run([1.0, 1.0], [0.5, -1e6], 1.0)
        assert np.isnan(got.trace).tolist() == [False, True]

    def test_step_cap_reruns_every_lane(self):
        got = _assert_same_run([1.0, 2.0], [0.5, 900.0], 1.0, max_steps=20)
        assert np.isnan(got.trace).tolist() == [False, True]

    def test_rounding_noise_can_set_the_step(self):
        # the second lane overflows to inf; where its error estimate is rounding
        # noise and sets the step, the kernel rounds unlike scipy: one step more
        args = [1.0, 1.0], [0.5, -1e5], 1.0
        got = lane_traces(*args, tol=1e-12)
        trace, steps, rhs_evals = _reference(*args, tol=1e-12)
        assert (got.steps, got.rhs_evals) == (2053, 24638)
        assert (steps, rhs_evals) == (2052, 24626)
        np.testing.assert_allclose(got.trace, trace, rtol=1e-13, atol=1e-13)
        assert got.trace[1] == math.inf


class TestWronskianResidual:
    def test_block_at_the_default_tolerance(self):
        ys = np.linspace(-2.0, 6.0, 41)
        got = lane_traces(np.linspace(0.05, 3.0, 21)[:, None], *Plane.GAMMA.lane_pair(ys))
        assert 0.0 < got.det_residual <= 1e-9

    def test_failed_and_dead_lanes_do_not_count(self):
        alone = lane_traces([1.0], 0.5, 1.0)
        mixed = lane_traces([1.0, 1.0, 0.0], [0.5, -1e6, 0.5], 1.0)
        assert mixed.det_residual == alone.det_residual
        assert lane_traces([0.0, math.nan], 1.0, 1.0).det_residual == 0.0

    def test_scan_meta_records_the_largest(self, tmp_path, capsys):
        grid = scan(Plane.GAMMA, (0.5, 3.0), (-1.0, 5.0), (6, 8))
        block = lane_traces(grid.x_values[:, None], *Plane.GAMMA.lane_pair(grid.y_values))
        assert grid.meta["det_residual_max"] == block.det_residual
        base = tmp_path / "g"
        assert main(["scan", "--plane", "gamma", "--x", "0.5:3:6", "--y", "-1:5:8",
                     "--out", str(base)]) == 0
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        assert meta["config"]["det_residual_max"] == block.det_residual

    def test_verify_rows(self):
        rows = {r.name: r for r in verify.run_suite("exact-lines")}
        assert rows["lane kernel on the exact lines"].passed
        assert rows["Wronskian residual of a 21x41 gamma block"].passed


class TestHarmonicWindowMargin:
    """Zhukovskii's test used to guarantee stability on a bound that had
    rounded onto a squared harmonic, and on a bound that had overflowed."""

    def test_rounded_bound_on_a_harmonic_is_inconclusive(self):
        # a = 4 lies inside Mathieu's second tongue for every q != 0
        v = zhukovskii(mathieu_coefficient(4.0, 2.220446049250313e-16))
        assert v.outcome is Outcome.INCONCLUSIVE

    def test_well_inside_is_still_stable(self):
        v = zhukovskii(mathieu_coefficient(2.0, 0.1))
        assert v.outcome is Outcome.GUARANTEED_STABLE and v.witness_ell == 1

    def test_overflowed_max_is_inconclusive(self, tmp_path, capsys):
        base = tmp_path / "z"
        assert main(["criteria-map", "--plane", "gamma", "--x", "9e153:9.4e153:2",
                     "--y", "1e308:1.7e308:2", "--criteria", "zhukovskii",
                     "--out", str(base)]) == 0
        cells = {}
        for row in (tmp_path / "z.csv").read_text().splitlines()[1:]:
            x, y, verdict = row.split(",")
            cells[float(x), float(y)] = verdict
        assert cells[9e153, 1.7e308] != "S"
