"""Scans, tongue boundaries, asymptotics, and crossing counts."""

import math

import numpy as np
import pytest

from hillduffing.errors import BracketNotFound, DomainError
from hillduffing.hill import lane_traces, monodromy, squared_duffing_coefficient
from hillduffing.tongues import (
    AsymptoticClass,
    Plane,
    StripVerdict,
    asymptotic_classification,
    asymptotic_tongue_bounds,
    axis_values,
    crossing_count,
    first_tongue_gamma,
    recount_crossings,
    scan,
    stability_strip_gamma,
    trace_level_bracket,
)

STABLE, UNSTABLE, BOUNDARY, FAILED = 0, 1, 2, 3


class TestAxisValues:
    def test_inclusive_endpoints(self):
        xs = axis_values(0.0, 3.0, 4)
        assert xs.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            axis_values(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            axis_values(1.0, 0.0, 5)


class TestScan:
    def test_strip_cells_stable_gamma_plane(self):
        grid = scan(Plane.GAMMA, (0.1, 3.0), (-3.96, 0.96), (8, 9))
        checked = 0
        for i, d in enumerate(grid.x_values):
            for j, g in enumerate(grid.y_values):
                # stay clear of the strip boundary by a small margin; the
                # classification band is undecided within ~1e-4 of it
                if -d * d / 2.0 + 0.02 < g < 1.0 - 0.02:
                    assert grid.classification[i, j] == STABLE, (d, g)
                    checked += 1
        assert checked > 20

    def test_first_tongue_cells_unstable(self):
        grid = scan(Plane.GAMMA, (1.0, 3.0), (1.05, 3.0), (5, 8))
        checked = 0
        for i, d in enumerate(grid.x_values):
            for j, g in enumerate(grid.y_values):
                if 1.0 + 0.05 < g < 1.0 + d * d / 2.0 - 0.05:
                    assert grid.classification[i, j] == UNSTABLE, (d, g)
                    checked += 1
        assert checked > 10

    def test_omega_strip_all_stable(self):
        grid = scan(Plane.OMEGA, (0.1, 5.0), (0.05, 0.95), (8, 7))
        assert (grid.classification == STABLE).all()

    def test_invalid_cells_marked_nan(self):
        grid = scan(Plane.GAMMA, (0.0, 1.0), (0.0, 1.0), (2, 3))
        assert (grid.classification[0] == FAILED).all()
        assert np.isnan(grid.trace[0]).all()
        assert (grid.classification[1] != FAILED).all()

    def test_deterministic_and_worker_invariant(self):
        a = scan(Plane.GAMMA, (0.5, 2.0), (-1.0, 2.0), (4, 5))
        b = scan(Plane.GAMMA, (0.5, 2.0), (-1.0, 2.0), (4, 5))
        c = scan(Plane.GAMMA, (0.5, 2.0), (-1.0, 2.0), (4, 5), workers=2)
        assert "\n".join(a.csv_rows()) == "\n".join(b.csv_rows())
        assert "\n".join(a.csv_rows()) == "\n".join(c.csv_rows())

    def test_csv_shape(self):
        grid = scan(Plane.GAMMA, (0.5, 1.0), (0.0, 0.5), (3, 4))
        rows = list(grid.csv_rows())
        assert rows[0] == "x,y,trace,class"
        assert len(rows) == 1 + 3 * 4


class TestFirstTongue:
    def test_tip(self):
        assert first_tongue_gamma(0.0) == (1.0, 1.0)

    def test_parabola(self):
        assert first_tongue_gamma(2.0) == (1.0, 3.0)

    def test_interior_point_unstable(self):
        lo, hi = first_tongue_gamma(1.0)
        mid = 0.5 * (lo + hi)
        tr = monodromy(squared_duffing_coefficient(1.0, mid)).trace
        assert abs(tr) > 2.0


class TestStrip:
    def test_verdicts(self):
        assert stability_strip_gamma(1.0, 0.0) is StripVerdict.STABLE
        assert stability_strip_gamma(1.0, -1.0) is StripVerdict.UNSTABLE
        assert stability_strip_gamma(1.0, 2.0) is StripVerdict.OUTSIDE
        assert stability_strip_gamma(1.0, 1.0) is StripVerdict.OUTSIDE


class TestAsymptoticBounds:
    def test_tip_degenerate(self):
        assert asymptotic_tongue_bounds(Plane.GAMMA, 2, 0.0) == (4.0, 4.0)

    def test_gamma_plane_coefficients(self):
        lo, hi = asymptotic_tongue_bounds(Plane.GAMMA, 2, 0.1)
        assert lo == pytest.approx(4.0 + (2.5 - 1.0 / (2.0 * math.pi)) * 0.01, rel=1e-14)
        assert hi == pytest.approx(4.0 + (2.5 + 1.0 / (2.0 * math.pi)) * 0.01, rel=1e-14)

    def test_omega_plane_coefficients(self):
        lo, hi = asymptotic_tongue_bounds(Plane.OMEGA, 2, 0.2)
        base = 2.0 + (0.75 - 0.25) * 0.04
        half = 0.04 / (4.0 * math.pi)
        assert lo == pytest.approx(base - half, rel=1e-14)
        assert hi == pytest.approx(base + half, rel=1e-14)

    def test_requires_ell_at_least_two(self):
        with pytest.raises(DomainError):
            asymptotic_tongue_bounds(Plane.GAMMA, 1, 0.1)


class TestTraceLevelBracket:
    def test_exact_first_tongue_boundaries(self):
        # bracketing at the exact resonance level |trace| = 2 recovers the
        # closed-form boundary (1, 1 + delta^2/2)
        sample = trace_level_bracket(Plane.GAMMA, 1, 1.0, threshold=2.0)
        assert sample.lower == pytest.approx(1.0, abs=1e-4)
        assert sample.upper == pytest.approx(1.5, abs=1e-4)
        assert sample.lower <= sample.upper

    def test_crossings_straddle_threshold(self):
        sample = trace_level_bracket(Plane.GAMMA, 1, 1.0)
        thr = sample.threshold
        for edge in (sample.lower, sample.upper):
            inside = min(max(edge, sample.lower + 1e-5), sample.upper - 1e-5)
            # nudging toward the interior raises |trace| above the level
            tr_in = monodromy(squared_duffing_coefficient(1.0, inside)).trace
            assert abs(tr_in) >= thr - 1e-6
        out_lo = monodromy(squared_duffing_coefficient(1.0, sample.lower - 1e-3)).trace
        out_hi = monodromy(squared_duffing_coefficient(1.0, sample.upper + 1e-3)).trace
        assert abs(out_lo) < thr
        assert abs(out_hi) < thr

    def test_large_delta_omega_tongue_upper_limit(self):
        sample = trace_level_bracket(Plane.OMEGA, 1, 50.0)
        assert abs(sample.upper - 3.0) < 0.1

    def test_thin_tongue_reported_or_found(self):
        # the third tongue near omega = 4 exceeds |trace| = 2 by ~3e-7;
        # whether the sampler catches it at default settings is not
        # guaranteed, only that the answer is honest
        try:
            sample = trace_level_bracket(Plane.OMEGA, 3, 1.2)
        except BracketNotFound:
            return
        assert 3.7 < sample.lower <= sample.upper < 4.4

    def test_rejects_bad_threshold(self):
        with pytest.raises(DomainError):
            trace_level_bracket(Plane.GAMMA, 1, 1.0, threshold=2.5)


class TestAsymptoticClassification:
    def test_examples(self):
        assert asymptotic_classification(2.0) is AsymptoticClass.UNSTABLE_AT_INFINITY
        assert asymptotic_classification(4.0) is AsymptoticClass.STABLE_AT_INFINITY
        assert asymptotic_classification(3.0) is AsymptoticClass.BOUNDARY

    def test_partition_of_positive_axis(self):
        # away from the triangular-number endpoints every omega belongs to
        # exactly one of the two interval families
        rng = np.random.default_rng(51)
        for w in rng.uniform(0.01, 100.0, 500):
            in_s = in_u = False
            for k in range(0, 9):
                if k * (2 * k + 1) < w < (k + 1) * (2 * k + 1):
                    in_s = True
                if (k + 1) * (2 * k + 1) < w < (k + 1) * (2 * k + 3):
                    in_u = True
            assert in_s != in_u
            got = asymptotic_classification(w)
            expected = (AsymptoticClass.STABLE_AT_INFINITY if in_s
                        else AsymptoticClass.UNSTABLE_AT_INFINITY)
            assert got is expected

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            asymptotic_classification(0.0)


class TestCrossingCount:
    @pytest.mark.parametrize("omega,count", [
        (0.5, 0), (1.5, 1), (2.0, 1), (2.5, 3), (3.0, 2), (3.5, 4), (4.0, 4),
        (4.5, 6), (5.0, 6), (5.5, 8), (6.0, 7), (6.5, 9), (7.0, 9),
    ])
    def test_table(self, omega, count):
        assert crossing_count(omega) == count

    def test_domain(self):
        with pytest.raises(DomainError):
            crossing_count(7.5)
        with pytest.raises(DomainError):
            crossing_count(0.0)
        with pytest.raises(DomainError):
            crossing_count(1.0)

    def test_parity_matches_asymptotics(self):
        for rep in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5):
            even = crossing_count(rep) % 2 == 0
            stable = asymptotic_classification(rep) is AsymptoticClass.STABLE_AT_INFINITY
            assert even == stable, rep


class TestRecount:
    def test_stable_strip_has_no_crossings(self):
        assert recount_crossings(0.5, delta_max=3.0) == 0


def _monodromy_trace(plane, x, y):
    return monodromy(plane.coefficient(float(x), float(y))).trace


def _worst_relative_gap(grid):
    worst = 0.0
    for i, x in enumerate(grid.x_values):
        for j, y in enumerate(grid.y_values):
            want = _monodromy_trace(grid.plane, x, y)
            worst = max(worst, abs(grid.trace[i, j] - want) / max(1.0, abs(want)))
    return worst


class TestColumnKernel:
    def test_gamma_scan_matches_monodromy(self):
        # gamma < 0, the stable strip, the first tongue (1, 1 + delta^2/2)
        # and above it, for delta from 0.05 to 5
        grid = scan(Plane.GAMMA, (0.05, 5.0), (-2.0, 6.0), (5, 9))
        assert (grid.y_values < 0).any()
        assert any(1.0 < g < 1.0 + d * d / 2.0 for d in grid.x_values for g in grid.y_values)
        assert _worst_relative_gap(grid) <= 1e-8

    def test_omega_scan_matches_monodromy(self):
        grid = scan(Plane.OMEGA, (0.05, 5.0), (0.2, 3.2), (5, 6))
        assert (grid.y_values < 1).any() and (grid.y_values > 1).any()
        assert _worst_relative_gap(grid) <= 1e-8

    @pytest.mark.parametrize("delta,gamma", [(0.05, 0.5), (1.0, -1.0), (1.0, 1.2),
                                             (2.0, 4.5), (5.0, 3.0)])
    def test_half_period_trace_equals_full_period(self, delta, gamma):
        half = lane_traces(delta, [gamma], [1.0]).trace[0]
        full = monodromy(squared_duffing_coefficient(delta, gamma)).trace
        assert half == pytest.approx(full, rel=1e-8, abs=1e-8)

    def test_meta_work_counters(self):
        grid = scan(Plane.GAMMA, (0.0, 1.0), (0.0, 1.0), (2, 3))
        assert grid.meta["steps"] > 0
        assert grid.meta["rhs_evals"] > 0
        assert grid.meta["failed_cells"] == 3
