"""The Wronskian residual of ``hill.lane_traces`` when a lane overflows
but finishes: it is the largest drift over the lanes whose drift is finite."""

import math

import numpy as np

from hillduffing.hill import lane_traces


def test_overflowing_lane_leaves_the_residual_of_the_finished_lane():
    # the second lane grows like exp(sqrt(1e5) s) and reaches +-inf at tau = 1
    # without failing a step, so its drift is not finite
    lanes = lane_traces([1.0, 1.0], [0.5, -1e5], 1.0, tol=1e-12)
    assert math.isfinite(lanes.trace[0]) and np.isinf(lanes.trace[1])
    assert 0.0 < lanes.det_residual < 1e-10


def test_residual_is_zero_only_without_a_finished_lane():
    assert lane_traces([1.0], [math.nan], 1.0).det_residual == 0.0
    assert lane_traces([1.0], [0.5], 1.0).det_residual > 0.0
