"""Grid tasks of scan and criteria-map as blocks of whole columns, the
worker-count check and the byte-exact CSV formatting of scans, criteria maps
and beam trajectories."""

import json
import math

import numpy as np
import pytest

from hillduffing import DomainError, ModePair, Plane, scan, simulate, tongues
from hillduffing.cli import _criteria_cell, main
from hillduffing.hill import monodromy

BLOCK = tongues._BLOCK_LANES
FAILED = tongues.FAILED_CODE


def _grid_shape(ny):
    """(nx, ny, cols) with three full blocks of ``cols`` columns and a ragged fourth."""
    cols = BLOCK // ny
    return 3 * cols + cols // 3, ny, cols


def _block_edges(nx, cols):
    """Index of the first and last column of every block."""
    return sorted({i for start in range(0, nx, cols) for i in (start, min(start + cols, nx) - 1)})


def test_multi_block_csv_is_worker_count_invariant():
    nx, ny, cols = _grid_shape(41)
    args = (Plane.OMEGA, (0.05, 5.0), (0.1, 7.0), (nx, ny))
    one = scan(*args, workers=1)
    two = scan(*args, workers=2)
    assert one.meta["blocks"] == two.meta["blocks"] == 4
    assert nx % cols and not (one.classification == FAILED).any()
    assert "\n".join(one.csv_rows()) == "\n".join(two.csv_rows())


@pytest.mark.parametrize("plane,y_range", [(Plane.GAMMA, (-2.0, 6.0)), (Plane.OMEGA, (0.2, 3.2))])
def test_block_edge_columns_match_monodromy(plane, y_range):
    nx, ny, cols = _grid_shape(4)
    grid = scan(plane, (0.05, 5.0), y_range, (nx, ny))
    assert grid.meta["blocks"] == 4
    worst = 0.0
    for i in _block_edges(nx, cols):
        for j, y in enumerate(grid.y_values):
            want = monodromy(plane.coefficient(float(grid.x_values[i]), float(y))).trace
            worst = max(worst, abs(grid.trace[i, j] - want) / max(1.0, abs(want)))
    assert worst <= 1e-8


def test_zero_amplitude_column_and_zero_omega_row_inside_a_block():
    nx, ny, cols = _grid_shape(9)
    zero = cols + cols // 2  # the middle column of the second block
    h = 2.0**-10  # exact steps, so column ``zero`` is delta = 0 exactly
    grid = scan(Plane.OMEGA, (-zero * h, (nx - 1 - zero) * h), (0.0, 2.0), (nx, ny))
    assert grid.x_values[zero] == 0.0 and grid.y_values[0] == 0.0
    failed = np.zeros((nx, ny), dtype=bool)
    failed[zero, :] = failed[:, 0] = True
    assert np.array_equal(np.isnan(grid.trace), failed)
    assert np.array_equal(grid.classification == FAILED, failed)
    assert grid.meta["failed_cells"] == nx + ny - 1
    for i, j in [(zero - 1, 1), (zero + 1, 1), (zero - 1, ny - 1), (zero + 1, ny - 1),
                 (zero + 2, 1)]:
        x, y = float(grid.x_values[i]), float(grid.y_values[j])
        want = monodromy(Plane.OMEGA.coefficient(x, y)).trace
        assert abs(grid.trace[i, j] - want) <= 1e-8 * max(1.0, abs(want))


def test_chart_size_scan_starts_no_pool(monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", None)
    grid = scan(Plane.OMEGA, (0.05, 5.0), (0.1, 7.0), (26, 41), workers=2)
    assert grid.meta["blocks"] == 1
    assert not (grid.classification == FAILED).any()


def test_chart_size_criteria_map_starts_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(tongues, "ProcessPoolExecutor", None)
    ny = 41
    nx = BLOCK // ny
    assert main(["criteria-map", "--plane", "omega", "--x", f"0.5:5:{nx}", "--y", f"0.1:7:{ny}",
                 "--workers", "2", "--out", str(tmp_path / "c")]) == 0
    meta = json.loads((tmp_path / "c.meta.json").read_text())
    assert meta["config"]["blocks"] == 1 and meta["config"]["workers"] == 2
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + nx * ny


def test_multi_block_criteria_map_matches_every_cell(tmp_path):
    nx, ny, cols = _grid_shape(41)
    names = ("li-zhang", "zhukovskii", "burdina")
    args = ["criteria-map", "--plane", "omega", "--x", f"-1:5:{nx}", "--y", f"0:7:{ny}",
            "--criteria", ",".join(names)]
    for w in (1, 2):
        assert main(args + ["--workers", str(w), "--out", str(tmp_path / f"w{w}")]) == 0
        meta = json.loads((tmp_path / f"w{w}.meta.json").read_text())
        assert meta["config"]["blocks"] == 4
    one = (tmp_path / "w1.csv").read_bytes()
    assert nx % cols and one == (tmp_path / "w2.csv").read_bytes()
    rows = ["x,y,li_zhang,zhukovskii,burdina"]
    for x in tongues.axis_values(-1.0, 5.0, nx):
        for y in tongues.axis_values(0.0, 7.0, ny):
            verdicts = _criteria_cell((Plane.OMEGA, float(x), float(y), names))
            rows.append(f"{x:.17g},{y:.17g}," + ",".join(verdicts))
    assert one == ("\n".join(rows) + "\n").encode()
    assert {"S", "I"} <= {v for row in rows[1:] for v in row.split(",")[2:]}


@pytest.mark.parametrize("workers", [0, -3, math.nan, math.inf, 2.5])
def test_scan_rejects_a_bad_worker_count(workers):
    with pytest.raises(DomainError, match="workers"):
        scan(Plane.GAMMA, (0.5, 1.0), (0.0, 1.0), (3, 3), workers=workers)


@pytest.mark.parametrize("workers", [0, -1, math.nan, 1.5])
def test_map_cells_rejects_a_bad_worker_count_with_no_tasks(workers):
    with pytest.raises(DomainError, match="workers"):
        tongues.map_cells(abs, [], workers)


def test_map_cells_takes_an_integral_float():
    assert tongues.map_cells(abs, [-1, -2], 1.0) == [1, 2]


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
def test_bad_workers_variable_is_named(env, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HILLDUFFING_WORKERS", env)
    code = main(["scan", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0:1:2",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "HILLDUFFING_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_bad_workers_flag_is_named(tmp_path, capsys):
    code = main(["criteria-map", "--plane", "gamma", "--x", "0.5:1:2", "--y", "0:1:2",
                 "--workers", "0", "--out", str(tmp_path / "c")])
    assert code == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_scan_csv_rows_format_every_cell_as_before():
    grid = scan(Plane.OMEGA, (-0.5, 1.0), (0.0, 2.0), (4, 5))
    want = ["x,y,trace,class"]
    for i, x in enumerate(grid.x_values):
        for j, y in enumerate(grid.y_values):
            t = grid.trace[i, j]
            t_str = "nan" if math.isnan(t) else f"{t:.17g}"
            want.append(f"{x:.17g},{y:.17g},{t_str},{grid.class_name(i, j)}")
    assert list(grid.csv_rows()) == want


def test_beam_out_bytes(tmp_path, capsys):
    path = tmp_path / "run.csv"
    assert main(["beam", "--m", "1", "--n", "2", "--delta", "3.01", "--horizon", "20",
                 "--out", str(path)]) == 0
    trajectory = simulate(ModePair(1, 2), 3.01, horizon=20.0).trajectory
    rows = [",".join(f"{v:.17g}" for v in row) for row in trajectory]
    want = "\n".join(["t,w,w_dot,z,z_dot,energy", *rows]) + "\n"
    assert path.read_bytes() == want.encode()
