"""Non-finite and out-of-range inputs, large frequency ratios, lane failures,
amplitude lanes, line samples, the cell map and the verify table."""

import json
import math

import numpy as np
import pytest

from hillduffing import (
    AsymptoticClass,
    DomainError,
    IntegrationFailure,
    ModePair,
    Plane,
    Stability,
    asymptotic_classification,
    burdina_condition_gamma,
    burdina_condition_omega,
    mode_stability,
    monodromy,
    omega_coefficient,
    phi,
    psi,
    recount_crossings,
    scan,
    simulate,
    squared_duffing_coefficient,
    tongues,
    trace_level_bracket,
    verify,
)
from hillduffing.cli import main
from hillduffing.hill import LaneTraces, classify_trace, lane_traces
from hillduffing.integrate import solve_final, solve_lanes


class TestAsymptoticClassification:
    @pytest.mark.parametrize("omega", [math.inf, math.nan])
    def test_non_finite_raises(self, omega):
        with pytest.raises(DomainError):
            asymptotic_classification(omega)

    def test_large_omega_returns(self):
        assert isinstance(asymptotic_classification(1e12), AsymptoticClass)

    @pytest.mark.parametrize("omega", [1, 3, 6, 10])
    def test_triangular_numbers_are_boundary(self, omega):
        assert asymptotic_classification(omega) is AsymptoticClass.BOUNDARY


def test_non_finite_gamma_is_named():
    with pytest.raises(DomainError, match="gamma"):
        squared_duffing_coefficient(1.0, math.nan)


def test_scan_rejects_infinite_range(tmp_path, capsys):
    base = tmp_path / "s"
    code = main(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0:inf:2",
                 "--out", str(base)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_criteria_map_worker_count_invariant(tmp_path, capsys):
    args = ["criteria-map", "--plane", "omega", "--x", "0.5:2:3", "--y", "0.5:4:3"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(args + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_scan_rejects_non_finite_range_from_python():
    with pytest.raises(DomainError, match="range"):
        scan(Plane.GAMMA, (0.5, 1.0), (0.0, math.inf), (2, 2))


def test_omega_zero_row_is_nan_and_neighbours_unaffected():
    grid = scan(Plane.OMEGA, (0.5, 1.0), (0.0, 1.0), (2, 3))
    assert np.isnan(grid.trace[:, 0]).all()
    assert (grid.classification[:, 0] == 3).all()
    for i, delta in enumerate(grid.x_values):
        for j in (1, 2):
            want = monodromy(omega_coefficient(delta, grid.y_values[j])).trace
            assert grid.trace[i, j] == pytest.approx(want, rel=1e-8)
    assert grid.meta["failed_cells"] == 2


class TestLaneFailures:
    c = 1.0

    def test_non_finite_lane_is_masked_out(self):
        alone = lane_traces(self.c, [0.5], [1.0])
        mixed = lane_traces(self.c, [math.nan, 0.5, math.inf], [1.0, 1.0, 1.0])
        assert np.isnan(mixed.trace[[0, 2]]).all()
        assert mixed.trace[1] == alone.trace[0]
        assert mixed.steps == alone.steps

    def test_step_cap_reruns_each_lane_alone(self):
        alone = lane_traces(self.c, [0.5], [1.0])
        # the fast lane needs more steps than the slow one alone takes
        both = lane_traces(self.c, [0.5, 400.0], [1.0, 1.0], max_steps=alone.steps)
        assert both.trace[0] == alone.trace[0]
        assert np.isnan(both.trace[1])
        assert both.steps > alone.steps


@pytest.mark.parametrize("delta, gamma", [(1, 0.5), (3, -1), (0.3, 4), (2, 1.2)])
def test_one_lane_reproduces_solve_final(delta, gamma):
    p = squared_duffing_coefficient(delta, gamma)
    calls = []

    def rhs(t, y):
        calls.append(t)
        pt = p.func(t)
        return np.array([y[1], -pt * y[0], y[3], -pt * y[2]])

    y0 = (1.0, 0.0, 0.0, 1.0)
    final = solve_final(rhs, 0.0, p.period, y0, 1e-10)
    final_calls = len(calls)
    calls.clear()
    lanes = solve_lanes(rhs, 0.0, p.period, np.reshape(y0, (4, 1)), 1e-10)
    assert lanes.failure is None
    assert lanes.rhs_evals == len(calls) == final_calls
    assert np.array_equal(lanes.y[:, 0], final)


@pytest.mark.parametrize("delta, gamma", [(0.5, 0), (1, -1), (0.5, 7)])
def test_solve_final_is_one_lane_of_solve_lanes(delta, gamma):
    """Points where scipy's own error norm used to end on other bits."""
    p = squared_duffing_coefficient(delta, gamma)
    calls = []

    def rhs(t, y):
        calls.append(t)
        pt = p.func(t)
        return np.array([y[1], -pt * y[0], y[3], -pt * y[2]])

    final = solve_final(rhs, 0.0, p.period, (1.0, 0.0, 0.0, 1.0), 1e-10)
    final_calls = len(calls)
    calls.clear()
    lanes = solve_lanes(rhs, 0.0, p.period, np.array([[1.0], [0.0], [0.0], [1.0]]), 1e-10)
    assert lanes.rhs_evals == len(calls) == final_calls
    assert np.array_equal(lanes.y[:, 0], final)


class _RecordingPool:
    chunksizes: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        self.chunksizes.append((len(tasks), self.max_workers, chunksize))
        return map(fn, tasks)


def test_map_cells_chunks_by_task_and_worker_count(monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.chunksizes = []
    assert tongues.map_cells(abs, list(range(-26, 0)), 2) == list(range(26, 0, -1))
    assert tongues.map_cells(abs, [-1, -2], 2) == [1, 2]
    assert _RecordingPool.chunksizes == [(26, 2, 3), (2, 2, 1)]


def test_map_cells_asks_for_no_more_workers_than_tasks(monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", _RecordingPool)
    _RecordingPool.chunksizes = []
    assert tongues.map_cells(abs, [-1, -2, -3], 50) == [1, 2, 3]
    assert tongues.map_cells(abs, [-4], 8) == [4]
    assert tongues.map_cells(abs, [], 8) == []
    assert _RecordingPool.chunksizes == [(3, 3, 1)]


def test_map_cells_one_worker_starts_no_pool(monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", None)
    assert tongues.map_cells(abs, [-1, 2], 1) == [1, 2]


class TestSimulateValidation:
    pair = ModePair(1, 2)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_horizon_is_named(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            simulate(self.pair, 1.0, horizon=horizon)

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_non_finite_delta_is_named(self, delta):
        with pytest.raises(DomainError, match="delta"):
            simulate(self.pair, delta, horizon=10.0)

    @pytest.mark.parametrize("factor", [math.nan, 0.0, 1.0, -5.0, math.inf])
    def test_bad_growth_factor_is_named(self, factor):
        with pytest.raises(DomainError, match="growth_factor"):
            simulate(self.pair, 1.0, horizon=10.0, growth_factor=factor)

    def test_cli_infinite_horizon_exits_2(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["beam", "--m", "1", "--n", "2", "--delta", "1", "--horizon", "inf",
                     "--out", str(out)])
        assert code == 2
        assert "horizon" in capsys.readouterr().err
        assert not out.exists()


class TestToleranceBand:
    @pytest.mark.parametrize("band", [math.nan, -1.0, 2.0, math.inf])
    def test_classify_trace_rejects(self, band):
        with pytest.raises(DomainError, match="tol_boundary"):
            classify_trace(1.0, band)

    def test_zero_band_is_allowed(self):
        assert classify_trace(2.0, 0.0) is Stability.BOUNDARY

    @pytest.mark.parametrize("band", [math.nan, -1.0])
    def test_scan_rejects_before_integrating(self, band, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking tol_boundary")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match="tol_boundary"):
            scan(Plane.GAMMA, (0.5, 1.0), (0.0, 2.0), (2, 3), tol_boundary=band)

    @pytest.mark.parametrize("band", [math.nan, -1.0])
    def test_monodromy_and_mode_stability_reject(self, band):
        with pytest.raises(DomainError, match="tol_boundary"):
            monodromy(squared_duffing_coefficient(1.0, 0.5), tol_boundary=band)
        with pytest.raises(DomainError, match="tol_boundary"):
            mode_stability(ModePair(1, 2), 1.0, tol_boundary=band)

    def test_cli_scan_exits_2_and_writes_nothing(self, tmp_path, capsys):
        code = main(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0:2:3",
                     "--tol-boundary", "-1", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "tol_boundary" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_recount_rejects_bad_omega(omega):
    with pytest.raises(DomainError, match="omega"):
        recount_crossings(omega)


class TestLineSamples:
    def test_bracket_window_is_not_sampled_point_by_point(self, monkeypatch):
        calls = []
        point = tongues.trace_at

        def counted(*args, **kwargs):
            calls.append(args)
            return point(*args, **kwargs)

        monkeypatch.setattr(tongues, "trace_at", counted)
        sample = trace_level_bracket(Plane.GAMMA, 1, 1.0, threshold=2.0)
        assert sample.lower == pytest.approx(1.0, abs=1e-4)
        assert 0 < len(calls) < 257
        # the reported peak is a point solve, not a lane value
        assert sample.peak_trace == abs(point(Plane.GAMMA, 1.0, sample.peak))

    def test_nan_sample_raises(self, monkeypatch):
        def failed(c, a, b, tol):
            return LaneTraces(np.full(np.shape(a), math.nan), 0, 0)

        monkeypatch.setattr(tongues, "lane_traces", failed)
        with pytest.raises(IntegrationFailure):
            trace_level_bracket(Plane.OMEGA, 2, 0.2)
        with pytest.raises(IntegrationFailure):
            recount_crossings(1.5, delta_max=0.05)

    @staticmethod
    def _interval_loop_count(abstr, refined, near_band=0.1):
        """The per-interval loop ``recount_crossings`` counted with before
        its grid logic was vectorised; the reference for the new form."""
        unstable = abstr > 2.0
        n = abstr.size
        count = i = 0
        while i < n:
            if unstable[i]:
                j = i
                while j + 1 < n and unstable[j + 1]:
                    j += 1
                count += 1 if j == n - 1 else 2
                i = j + 1
            else:
                i += 1
        for i in range(1, n - 1):
            if unstable[i - 1] or unstable[i] or unstable[i + 1]:
                continue
            if not (abstr[i] >= abstr[i - 1] and abstr[i] >= abstr[i + 1]):
                continue
            if abstr[i] > 2.0 - near_band and refined[i] > 2.0:
                count += 2
        return count

    def test_recount_grid_logic_matches_interval_loop(self, monkeypatch):
        rng = np.random.default_rng(3)
        step = 0.01
        for _ in range(300):
            n = int(rng.integers(0, 25))
            abstr = rng.choice([1.5, 1.95, 1.99, 1.99, 2.01, 2.5], size=n)
            refined = rng.choice([1.999, 2.001], size=n)

            def index(d):
                return np.rint(np.asarray(d) / step).astype(int) - 1

            monkeypatch.setattr(tongues, "_line",
                                lambda plane, d, ys, tol: abstr[index(d)])
            monkeypatch.setattr(tongues, "_refine_peak",
                                lambda f, a, b, xatol: (0.0, refined[index((a + b) / 2)]))
            want = self._interval_loop_count(abstr, refined)
            assert recount_crossings(1.5, delta_max=n * step, coarse_step=step) == want

    def test_run_open_at_delta_max_counts_once(self):
        # omega = 1.5 enters its tongue near delta = 1.8 and stays inside
        assert recount_crossings(1.5, delta_max=1.7) == 0
        assert recount_crossings(1.5, delta_max=2.0) == 1


def test_tongue_bracket_payload_keys(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["tongue-bracket", "--plane", "gamma", "--ell", "1", "--delta", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["delta", "ell", "lower", "peak", "peak_trace", "plane",
                               "threshold", "upper"]
    assert payload["plane"] == "gamma"


class TestVerifyTable:
    def test_tongue_bracket_runs_once(self, monkeypatch):
        calls = []
        bracket = tongues.trace_level_bracket

        def counted(*args, **kwargs):
            calls.append(args)
            return bracket(*args, **kwargs)

        monkeypatch.setattr(tongues, "trace_level_bracket", counted)
        results = verify.run_suite("tongues")
        assert len(calls) == 1
        assert len(results) == 6 and all(r.passed for r in results)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("nope")


class TestAmplitudeLanes:
    """Lanes with their own delta, as the recount's delta-grid uses them."""

    @pytest.mark.parametrize("plane, y", [(Plane.GAMMA, 0.5), (Plane.GAMMA, 3.0),
                                          (Plane.OMEGA, 1.5), (Plane.OMEGA, 0.4)])
    def test_delta_sweep_matches_monodromy(self, plane, y):
        deltas = np.linspace(0.05, 5.0, 12)
        batch = lane_traces(deltas, *plane.lane_pair(np.full(deltas.size, y)))
        for d, got in zip(deltas, batch.trace):
            want = monodromy(plane.coefficient(d, y)).trace
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_bad_lanes_are_nan_and_leave_neighbours_bit_identical(self):
        good = np.array([0.5, 1.0, 2.0, 3.0])
        clean = lane_traces(good, 1.5, 1.0)
        mixed = lane_traces([0.5, 0.0, 1.0, math.nan, 2.0, math.inf, 3.0], 1.5, 1.0)
        assert np.isnan(mixed.trace[[1, 3, 5]]).all()
        assert np.array_equal(mixed.trace[[0, 2, 4, 6]], clean.trace)
        assert mixed.steps == clean.steps
        a_nan = lane_traces(good, [1.5, math.nan, 1.5, 1.5], [1.0, 1.0, math.inf, 1.0])
        assert np.isnan(a_nan.trace[[1, 2]]).all()
        assert np.array_equal(a_nan.trace[[0, 3]], lane_traces(good[[0, 3]], 1.5, 1.0).trace)

    def test_only_bad_lanes_do_no_work(self):
        lanes = lane_traces([0.0, math.nan], 1.0, 1.0)
        assert np.isnan(lanes.trace).all()
        assert (lanes.steps, lanes.rhs_evals) == (0, 0)


class TestRecountGrid:
    @pytest.mark.parametrize("name, value", [
        ("coarse_step", 0.0), ("coarse_step", -0.01), ("coarse_step", math.nan),
        ("coarse_step", math.inf), ("delta_max", -1.0), ("delta_max", math.nan),
        ("delta_max", math.inf), ("near_band", math.nan), ("near_band", -0.1),
        ("near_band", 2.0), ("near_band", math.inf),
    ])
    def test_rejects_bad_grid(self, name, value, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated before checking the grid")

        monkeypatch.setattr(tongues, "lane_traces", forbidden)
        with pytest.raises(DomainError, match=name):
            recount_crossings(1.5, **{name: value})

    def test_zero_delta_max_counts_nothing(self):
        assert recount_crossings(1.5, delta_max=0.0) == 0


class TestClosedFormCriteriaFiniteness:
    @pytest.mark.parametrize("fn, delta, offset", [
        (burdina_condition_gamma, 1.0, math.inf), (burdina_condition_gamma, math.inf, 1.0),
        (burdina_condition_omega, 1.0, math.inf), (burdina_condition_omega, math.inf, 2.0),
        (phi, 1.0, math.inf), (phi, math.inf, 1.0), (psi, 1.0, math.inf), (psi, math.inf, 1.0),
        (burdina_condition_gamma, math.nan, 1.0), (phi, 1.0, math.nan),
    ])
    def test_non_finite_raises_domain_error(self, fn, delta, offset):
        with pytest.raises(DomainError, match="finite delta"):
            fn(delta, offset)
