"""Point traces on the one-lane kernel, the batched outward walk of the
tongue bracket, and amplitudes so large that 2 (1 + delta^2) overflows."""

import math
import warnings

import numpy as np
import pytest

from hillduffing import (
    BracketNotFound,
    DomainError,
    DuffingParams,
    IntegrationFailure,
    ModePair,
    Plane,
    mode_stability,
    monodromy,
    omega_coefficient,
    period,
    hill,
    tongues,
    trace_level_bracket,
)
from hillduffing.hill import DEFAULT_TOL_BOUNDARY, LaneTraces, lane_traces
from hillduffing.tongues import trace_at


class TestPointTraces:
    @pytest.mark.parametrize("plane, delta, y, tol", [
        (Plane.GAMMA, 0.5, 0.3, 1e-10), (Plane.GAMMA, 1.0, 2.5, 1e-10),
        (Plane.GAMMA, 2.0, 9.0, 1e-10), (Plane.GAMMA, 50.0, 2.0, 1e-10),
        (Plane.GAMMA, 1.0, 2.5, 1e-12), (Plane.OMEGA, 1.0, 1.5, 1e-10),
        (Plane.OMEGA, 0.3, 4.2, 1e-10), (Plane.OMEGA, 50.0, 2.0, 1e-10),
        (Plane.OMEGA, 3.0, 4.0, 1e-12),
    ])
    def test_matches_monodromy(self, plane, delta, y, tol):
        want = monodromy(plane.coefficient(delta, y), tol=tol).trace
        assert trace_at(plane, delta, y, tol=tol) == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("pair, deltas", [
        (ModePair(1, 2), (2.9, 2.92, 2.94, 3.0, 3.01, 3.2, 3.4, 3.44, 3.5)),
        (ModePair(2, 3), (2.4, 2.8, 4.7, 4.9)),
    ])
    def test_mode_stability_matches_monodromy(self, pair, deltas):
        for delta in deltas:
            want = monodromy(omega_coefficient(delta, pair.omega)).classification
            assert mode_stability(pair, delta) is want, delta

    @pytest.mark.parametrize("plane, delta, y", [
        (Plane.GAMMA, 0.0, 1.0), (Plane.GAMMA, math.nan, 1.0), (Plane.GAMMA, math.inf, 1.0),
        (Plane.GAMMA, 1.0, math.nan), (Plane.GAMMA, 1.0, -math.inf),
        (Plane.OMEGA, 0.0, 1.0), (Plane.OMEGA, -math.inf, 1.0), (Plane.OMEGA, 1.0, math.nan),
        (Plane.OMEGA, 1.0, math.inf), (Plane.OMEGA, 1.0, 0.0), (Plane.OMEGA, 1.0, -2.0),
    ])
    def test_point_without_coefficient_raises(self, plane, delta, y, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated a point with no coefficient")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError):
            trace_at(plane, delta, y)

    def test_nan_lane_raises_integration_failure(self, monkeypatch):
        def failed(c, a, b, tol):
            return LaneTraces(np.full(np.shape(a), math.nan), 0, 0)

        monkeypatch.setattr(tongues, "lane_traces", failed)
        for plane in Plane:
            with pytest.raises(IntegrationFailure):
                trace_at(plane, 1.0, 1.5)
        with pytest.raises(IntegrationFailure):
            mode_stability(ModePair(1, 2), 3.0)


    @pytest.mark.parametrize("plane, y, failure", [
        (Plane.GAMMA, -1e5, None),  # u reaches inf at tau = 1
        (Plane.GAMMA, -1e6, "a lane failed on the gamma line"),  # overflows while stepping
        (Plane.OMEGA, 1.25e154, "a lane failed on the omega line"),  # h^2 omega^2 overflows
    ])
    def test_overflowing_point_without_a_warning(self, plane, y, failure):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if failure is None:
                assert trace_at(plane, 1.0, y) == math.inf
            else:
                with pytest.raises(IntegrationFailure, match=f"^{failure}$"):
                    trace_at(plane, 1.0, y)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, 1e-13, 1e-5, math.inf])
    def test_bad_tol_raises_before_integrating(self, tol, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking tol")

        monkeypatch.setattr(hill, "_cn2_series", forbidden)
        monkeypatch.setattr(hill, "solve_hill_lanes", forbidden)
        for plane in Plane:
            with pytest.raises(DomainError, match="^tol must lie in "):
                trace_at(plane, 1.0, 1.5, tol=tol)


class TestHugeDelta:
    """2 (1 + delta^2) overflows from |delta| ~ 9.5e153 on, where the
    modulus and the period used to read 0 and a lane trace 2."""

    @pytest.mark.parametrize("delta", [1e154, 1e200, -1e200])
    def test_params_reject(self, delta):
        with pytest.raises(DomainError, match="delta"):
            DuffingParams(delta)
        with pytest.raises(DomainError, match="delta"):
            DuffingParams(delta, 4.0)

    def test_largest_accepted_delta_has_a_modulus_and_period(self):
        params = DuffingParams(9e153)
        assert params.modulus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert period(params) > 0.0

    @pytest.mark.parametrize("delta", [1e154, 1e160, 1e200])
    def test_point_solves_reject(self, delta):
        for plane in Plane:
            with pytest.raises(DomainError, match="delta"):
                trace_at(plane, delta, 0.5)
        with pytest.raises(DomainError, match="delta"):
            mode_stability(ModePair(1, 2), delta)

    def test_lane_is_nan_and_neighbours_bit_identical(self):
        clean = lane_traces([1.0, 2.0], 0.5, 1.0)
        mixed = lane_traces([1.0, 1e154, 2.0, 1e200, -1e200], 0.5, 1.0)
        assert np.isnan(mixed.trace[[1, 3, 4]]).all()
        assert np.array_equal(mixed.trace[[0, 2]], clean.trace)
        assert mixed.steps == clean.steps


def _serial_walk(abs_trace, peak, step, direction, threshold, y_floor):
    """The one-point-at-a-time outward walk ``trace_level_bracket`` used
    before its candidates were batched; the reference for the batched one."""
    y_in, y_out = peak, peak + direction * step
    for _ in range(200):
        if y_out <= y_floor:
            y_out = y_floor
            break
        if abs_trace(y_out) < threshold:
            break
        y_in = y_out
        y_out = y_out + direction * step
        step *= 1.3
    else:
        raise BracketNotFound("stable side not reached during outward walk")
    return tuple(sorted((y_in, y_out)))


class TestBatchedWalk:
    """Stubbed |trace|(y) profiles: the brackets handed to ``brentq`` must be
    the serial walk's, bit for bit."""

    THRESHOLD = 2.0 - DEFAULT_TOL_BOUNDARY  # trace_level_bracket's default

    @staticmethod
    def _run(monkeypatch, plane, ell, delta, profile):
        """Bracket with ``profile`` as |trace|; returns the peak, the brackets
        given to ``brentq``, the walk's evaluated candidates, the walk's first
        step, y_floor and whether a bracket was found."""
        y_floor = 1e-9 if plane is Plane.OMEGA else -math.inf
        points, walked, brackets = [], [], []

        def line(plane_, delta_, ys, tol):
            ys = np.asarray(ys, dtype=float)
            if ys.size != 257:
                assert ys.size <= tongues._WALK_CHUNK
                assert (ys > y_floor).all(), "evaluated a candidate at or past y_floor"
                walked.extend(ys.tolist())
            return np.array([profile(y) for y in ys])

        def point(plane_, delta_, y, tol):
            points.append(y)
            return profile(y)

        def bisect(f, a, b, xtol):
            brackets.append((a, b))
            return 0.5 * (a + b)

        monkeypatch.setattr(tongues, "_line", line)
        monkeypatch.setattr(tongues, "trace_at", point)
        monkeypatch.setattr(tongues, "brentq", bisect)
        lo, hi = tongues._seed_window(plane, ell, delta)
        step = (hi - max(lo, y_floor)) / 257
        try:
            trace_level_bracket(plane, ell, delta)
            found = True
        except BracketNotFound:
            found = False
        return points[0], brackets, walked, step, y_floor, found

    def _serial(self, profile, peak, step, direction, y_floor):
        return _serial_walk(profile, peak, step, direction, self.THRESHOLD, y_floor)

    @pytest.mark.parametrize("plane, ell, delta", [(Plane.GAMMA, 2, 0.5), (Plane.OMEGA, 3, 0.5)])
    @pytest.mark.parametrize("left, right", [(1e-3, 4e-3), (5e-3, 0.03), (0.04, 0.012),
                                             (0.08, 0.3), (0.6, 0.05), (1.3, 1e-3)])
    def test_brackets_equal_serial_walk(self, monkeypatch, plane, ell, delta, left, right):
        lo, hi = tongues._seed_window(plane, ell, delta)
        c = 0.5 * (lo + hi)

        def profile(y):
            w = left if y < c else right
            return 2.5 / (1.0 + ((y - c) / w) ** 2)

        peak, brackets, _, step, y_floor, found = self._run(monkeypatch, plane, ell, delta,
                                                            profile)
        assert found
        assert brackets == [self._serial(profile, peak, step, d, y_floor) for d in (-1, +1)]

    def test_omega_walk_clips_at_floor(self, monkeypatch):
        lo, hi = tongues._seed_window(Plane.OMEGA, 1, 1.0)
        c = 0.5 * (lo + hi)

        def profile(y):  # unstable all the way down to omega = 0
            return 3.0 if y < c else 2.5 / (1.0 + ((y - c) / 0.05) ** 2)

        peak, brackets, _, step, y_floor, found = self._run(monkeypatch, Plane.OMEGA, 1, 1.0,
                                                            profile)
        assert found
        assert brackets == [self._serial(profile, peak, step, d, y_floor) for d in (-1, +1)]
        assert brackets[0][0] == y_floor

    def test_no_stable_side_after_200_candidates(self, monkeypatch):
        lo, hi = tongues._seed_window(Plane.GAMMA, 2, 0.5)
        c = 0.5 * (lo + hi)

        def profile(y):  # unstable all the way up
            return 3.0 if y > c else 2.5 / (1.0 + ((y - c) / 0.05) ** 2)

        peak, brackets, walked, step, y_floor, found = self._run(monkeypatch, Plane.GAMMA, 2,
                                                                 0.5, profile)
        assert not found
        with pytest.raises(BracketNotFound):
            self._serial(profile, peak, step, +1, y_floor)
        assert brackets == [self._serial(profile, peak, step, -1, y_floor)]
        assert sum(y > peak for y in walked) == 200


def test_readme_closed_tongue_peak():
    # README: the second gamma tongue at delta = 0.2 peaks at |trace| = 2 - 1e-13,
    # closed at double precision; the bracket's peak_trace is a window sample below it
    y, peak = tongues._refine_peak(lambda y: abs(trace_at(Plane.GAMMA, 0.2, y, tol=1e-12)),
                                   4.09, 4.11, 1e-9)
    assert abs(peak - 2.0) < 1e-12
    assert 4.0999 < y < 4.1000
