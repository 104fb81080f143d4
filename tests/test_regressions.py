"""Non-finite inputs, large frequency ratios, lane failures and the cell map."""

import math

import numpy as np
import pytest

from hillduffing import (
    AsymptoticClass,
    DomainError,
    Plane,
    asymptotic_classification,
    monodromy,
    omega_coefficient,
    scan,
    squared_duffing_coefficient,
    tongues,
)
from hillduffing.cli import main
from hillduffing.hill import lane_traces
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
    c = squared_duffing_coefficient(1.0, 0.0)

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


def test_map_cells_one_worker_starts_no_pool(monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", None)
    assert tongues.map_cells(abs, [-1, 2], 1) == [1, 2]
