"""One liveness rule for Hill lanes: ``hill.lane_traces`` integrates a lane only
when its coefficient at tau = 0, -h^2 a - sum_n b D_n, is finite.  A dead lane
is NaN and leaves the rest of its batch exactly as the batch without it."""

import json
import math

import numpy as np
import pytest

from hillduffing import Plane
from hillduffing.cli import main
from hillduffing.hill import _cn2_series, lane_traces
from hillduffing.integrate import solve_hill_lanes

pytestmark = pytest.mark.filterwarnings("error")


def _assert_dead_lane_is_free(delta, a, b, dead):
    """Lane ``dead`` of the 1-D batch (delta, a, b) is NaN, and the other
    lanes' traces, steps and right-hand-side count are bit for bit those of
    the batch without it."""
    delta, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta, a, b)))
    keep = np.arange(a.size) != dead
    got = lane_traces(delta, a, b)
    alone = lane_traces(delta[keep], a[keep], b[keep])
    assert math.isnan(got.trace[dead])
    assert np.array_equal(got.trace[keep], alone.trace)
    assert not np.isnan(alone.trace).any()
    assert (got.steps, got.rhs_evals) == (alone.steps, alone.rhs_evals)
    assert got.det_residual == alone.det_residual
    return got


class TestDeadLanes:
    @pytest.mark.parametrize("at", [0, 1000, 2000])
    def test_omega_whose_scaled_coefficient_overflows(self, at):
        # omega^2 = 1.56e308 is a float, h^2 omega^2 is not
        ys = np.insert(np.linspace(1.0, 7.0, 2000), at, 1.25e154)
        a, b = Plane.OMEGA.lane_pair(ys)
        assert np.isfinite(a[at])
        got = _assert_dead_lane_is_free(1.0, a, b, at)
        assert got.steps < 100

    def test_finite_terms_whose_sum_overflows(self):
        h, d = _cn2_series(1.0)
        a0, b0 = -1.5e308 / (h * h), -5e307
        with np.errstate(over="ignore"):
            start = -h * h * a0 - (b0 * d).sum()
        assert math.isfinite(-h * h * a0) and np.isfinite(-b0 * d).all()
        assert start == math.inf
        _assert_dead_lane_is_free([1.0, 0.5, 2.0], [a0, 1.5, 2.5], [b0, 1.0, 1.0], 0)

    def test_gamma_whose_scaled_coefficient_overflows(self):
        _assert_dead_lane_is_free([0.01, 0.5, 1.0], [1e308, 2.0, 3.0], 1.0, 0)

    @pytest.mark.parametrize("dead_a", [math.nan, 1.5e308])
    @pytest.mark.parametrize("dead", [0, 1])
    def test_one_live_lane_is_the_point(self, dead_a, dead):
        # a batch whose one live lane is (1.0, 4.0, 1.0) solves it as the
        # float point does: a NaN a, or an h^2 a that overflows, is dead
        a = [4.0, 4.0]
        a[dead] = dead_a
        got = lane_traces([1.0, 1.0], a, [1.0, 1.0])
        point = lane_traces(1.0, 4.0, 1.0)
        assert math.isnan(got.trace[dead])
        assert got.trace[1 - dead].tobytes() == point.trace.tobytes()
        assert (got.steps, got.rhs_evals, got.det_residual) == (
            point.steps, point.rhs_evals, point.det_residual)

    def test_a_batch_of_dead_lanes_does_no_work(self):
        got = lane_traces([1.0, 0.01, 1.0], [math.nan, 1e308, 1.0], [1.0, 1.0, math.inf])
        assert np.isnan(got.trace).all()
        assert (got.steps, got.rhs_evals, got.det_residual) == (0, 0, 0.0)


class TestFailedBatchReruns:
    """Each lane of a failed batch of two or more runs again as its float point."""

    @pytest.mark.parametrize("delta, a, max_steps, work", [
        # lane 2 hits the step cap, in the batch and alone
        ([1.0, 2.0], [0.5, 900.0], 20, (50, 606)),
        # lane 2 starts finite but so large that the batch's first step underflows
        ([1.0, 2.0, 1.5], [0.5, 1e308, 2.0], 10_000_000, (19, 236)),
    ])
    def test_lanes_are_the_points(self, delta, a, max_steps, work):
        got = lane_traces(delta, a, 1.0, max_steps=max_steps)
        points = [lane_traces(float(d), float(x), 1.0, max_steps=max_steps)
                  for d, x in zip(delta, a)]
        assert got.trace.tobytes() == np.array([p.trace for p in points]).tobytes()
        assert math.isnan(got.trace[1]) and not np.isnan(got.trace[::2]).any()
        assert got.det_residual == max(p.det_residual for p in points) > 0.0
        # the failed batch's own run comes first
        assert (got.steps, got.rhs_evals) == work
        assert got.steps > sum(p.steps for p in points)


def test_kernel_underflows_at_once_on_a_non_finite_start():
    # the kernel has no start check of its own: such a lane fails the first step
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_hill_lanes(lambda taus: np.where(taus[:, None] == 0.0, math.inf, -1.0)
                               * np.ones((1, 2)), 2, 1e-10)
    assert (sol.steps, sol.failure) == (1, "step size underflow at t=0.0")


def test_scan_sidecar_counts_only_the_live_cells(tmp_path):
    base = tmp_path / "n"
    assert main(["scan", "--plane", "omega", "--x", "0.5:1:2", "--y", "1:1.25e154:2",
                 "--out", str(base)]) == 0
    config = json.loads((tmp_path / "n.meta.json").read_text())["config"]
    live = lane_traces([0.5, 1.0], *Plane.OMEGA.lane_pair([1.0]))
    assert (config["steps"], config["rhs_evals"]) == (live.steps, live.rhs_evals)
    assert config["failed_cells"] == 2


@pytest.mark.parametrize("delta", [0.0, -0.0, 1e200])
def test_dead_float_delta_is_a_nan_point(delta):
    """A float delta that the amplitude rule refuses returns before the series."""
    point = lane_traces(delta, 1.5, 1.0)
    batch = lane_traces([delta], [1.5], [1.0])
    assert point.trace.shape == () and math.isnan(point.trace)
    assert (point.steps, point.rhs_evals, point.det_residual) == (0, 0, 0.0)
    assert batch.trace.shape == (1,) and math.isnan(batch.trace[0])
    assert (batch.steps, batch.rhs_evals, batch.det_residual) == (0, 0, 0.0)


@pytest.mark.parametrize("delta, a, max_steps", [
    (1.0, 1.5, 10_000_000),  # finishes
    (2.0, 900.0, 20),  # hits the step cap
    (1.0, -1e6, 10_000_000),  # overflows while stepping
    (1.0, math.inf, 10_000_000),  # dead at tau = 0
])
def test_point_is_its_one_element_batch(delta, a, max_steps):
    """Points and batches share one tail: a float point gives the bytes, work and
    residual of the one-element array call, with a 0-d trace."""
    point = lane_traces(delta, a, 1.0, max_steps=max_steps)
    batch = lane_traces([delta], [a], [1.0], max_steps=max_steps)
    assert point.trace.shape == () and batch.trace.shape == (1,)
    assert point.trace.tobytes() == batch.trace.tobytes()
    assert (point.steps, point.rhs_evals) == (batch.steps, batch.rhs_evals)
    assert point.det_residual == batch.det_residual
