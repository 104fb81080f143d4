"""The one near-miss rule of the two line searches: ``_near_misses`` picks
the interior local maxima of a sampled |trace| just below a level, and
both ``trace_level_bracket`` and ``recount_crossings`` refine each of them
once."""

import numpy as np
import pytest

from hillduffing import BracketNotFound, Plane, tongues, trace_level_bracket
from hillduffing.cli import main


class TestNearMisses:
    def test_picks_interior_local_maxima_in_band(self):
        vals = np.array([1.95, 1.9, 1.97, 1.6, 1.85, 1.7, 2.0, 1.99, 2.3, 2.1, 1.98])
        # 0 and 10 are edges, 6 sits exactly on the level, 8 is above it
        assert tongues._near_misses(vals, 2.0, 0.1).tolist() == [2, 6]
        assert tongues._near_misses(vals, 2.0, 0.2).tolist() == [2, 4, 6]
        assert tongues._near_misses(vals, 2.0, 0.0).tolist() == []

    def test_plateau_samples_are_each_a_maximum(self):
        vals = np.array([1.0, 1.9, 1.9, 1.0])
        assert tongues._near_misses(vals, 2.0, 0.5).tolist() == [1, 2]

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_too_short_for_an_interior(self, size):
        assert tongues._near_misses(np.full(size, 1.95), 2.0, 0.1).size == 0

    def test_equals_the_recount_neighbour_mask(self):
        """A local maximum at or below the level has no neighbour above it,
        so the recount's old three-term stable mask adds nothing."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            vals = rng.choice([1.5, 1.9, 1.95, 1.99, 2.0, 2.01, 2.5],
                              size=int(rng.integers(0, 30)))
            band = float(rng.choice([0.0, 0.05, 0.1, 0.6]))
            unstable = vals > 2.0
            mid = vals[1:-1]
            mask = ~(unstable[:-2] | unstable[1:-1] | unstable[2:]) & (mid > 2.0 - band) \
                & (mid >= vals[:-2]) & (mid >= vals[2:])
            want = (np.flatnonzero(mask) + 1).tolist()
            assert tongues._near_misses(vals, 2.0, band).tolist() == want


class TestBracketRefinesEachNearMissOnce:
    """Stubbed |trace|(y) lines: the bracket refines a near miss once per
    window round, and only local maxima, highest first."""

    @staticmethod
    def _run(monkeypatch, profile, threshold=None):
        """Bracket gamma tongue 2 at delta 0.5 with ``profile`` as |trace|;
        returns the result (or None) and the intervals given to ``_refine_peak``."""
        refined = []
        refine = tongues._refine_peak

        def counted(f, a, b, xatol):
            refined.append((float(a), float(b)))
            return refine(f, a, b, xatol)

        monkeypatch.setattr(tongues, "_line",
                            lambda plane, delta, ys, tol: np.array([profile(y) for y in ys]))
        monkeypatch.setattr(tongues, "trace_at", lambda plane, delta, y, tol: profile(y))
        monkeypatch.setattr(tongues, "brentq", lambda f, a, b, xtol: 0.5 * (a + b))
        monkeypatch.setattr(tongues, "_refine_peak", counted)
        try:
            sample = trace_level_bracket(Plane.GAMMA, 2, 0.5, threshold=threshold)
        except BracketNotFound:
            sample = None
        return sample, refined

    @staticmethod
    def _window():
        lo, hi = tongues._seed_window(Plane.GAMMA, 2, 0.5)
        return lo, hi, (hi - lo) / 256

    def test_no_tongue_costs_one_refinement_per_round(self, monkeypatch):
        lo, hi, step = self._window()
        c = 0.5 * (lo + hi) + 0.3 * step

        def profile(y):  # one smooth peak of height 1.9, many samples wide
            return 1.9 / (1.0 + ((y - c) / (20 * step)) ** 2)

        sample, refined = self._run(monkeypatch, profile)
        assert sample is None
        assert len(refined) == 3
        for a, b in refined:  # each between the neighbours of the sampled maximum
            assert a < c < b

    def test_highest_near_miss_refined_first_and_lifted_one_kept(self, monkeypatch):
        lo, hi, step = self._window()
        low_c, high_c = lo + 60.3 * step, lo + 190.3 * step

        def profile(y):
            # sampled near misses of about 1.62 and 1.91; only the lower one reaches past 2
            low = 2.2 / (1.0 + ((y - low_c) / (0.5 * step)) ** 2)
            high = 1.95 / (1.0 + ((y - high_c) / (2 * step)) ** 2)
            return max(low, high)

        sample, refined = self._run(monkeypatch, profile, threshold=2.0)
        assert sample is not None
        assert len(refined) == 2
        assert refined[0][0] < high_c < refined[0][1]
        assert refined[1][0] < low_c < refined[1][1]
        assert sample.peak == pytest.approx(low_c, abs=1e-6)
        assert sample.peak_trace > 2.0

    def test_sample_above_threshold_needs_no_refinement(self, monkeypatch):
        lo, hi, step = self._window()
        c = 0.5 * (lo + hi)
        sample, refined = self._run(monkeypatch,
                                    lambda y: 2.5 / (1.0 + ((y - c) / (5 * step)) ** 2))
        assert sample is not None and refined == []


def test_thin_tongue_found_by_refinement(monkeypatch):
    """Gamma tongue 2 at delta 0.5 peaks between the samples; refining the
    sampled near miss lifts |trace| above 2."""
    calls = []
    refine = tongues._refine_peak

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(tongues, "_refine_peak", counted)
    sample = trace_level_bracket(Plane.GAMMA, 2, 0.5, threshold=2.0)
    assert len(calls) == 1
    assert sample.peak_trace > 2.0
    assert sample.lower == pytest.approx(4.6222498, abs=1e-6)
    assert sample.upper == pytest.approx(4.6222639, abs=1e-6)
    assert sample.lower < sample.peak < sample.upper


def test_cli_no_tongue_is_not_found(capsys, monkeypatch):
    calls = []
    refine = tongues._refine_peak
    monkeypatch.setattr(tongues, "_refine_peak",
                        lambda *args: calls.append(args) or refine(*args))
    assert main(["tongue-bracket", "--plane", "gamma", "--ell", "2", "--delta", "0.2",
                 "--threshold", "2"]) == 0
    assert capsys.readouterr().out.startswith("NOT FOUND")
    assert len(calls) <= 3


def test_recount_refines_each_near_miss_once(monkeypatch):
    """The recount refines exactly the near misses of its grid, each once."""
    seen = []
    near = tongues._near_misses

    def recorded(vals, level, band):
        seen.append(near(vals, level, band))
        return seen[-1]

    calls = []
    refine = tongues._refine_peak
    monkeypatch.setattr(tongues, "_near_misses", recorded)
    monkeypatch.setattr(tongues, "_refine_peak",
                        lambda *args: calls.append(args) or refine(*args))
    tongues.recount_crossings(4.5, delta_max=6.0, coarse_step=0.01)
    deltas = np.arange(0.01, 6.005, 0.01)
    assert len(seen) == 1 and seen[0].size > 0
    assert [(a, b) for _, a, b, _ in calls] == [(deltas[i - 1], deltas[i + 1]) for i in seen[0]]
