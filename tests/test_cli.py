"""CLI behaviour: file formats, determinism, exit codes."""

import json

import pytest

from hillduffing.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestScanCommand:
    def test_row_count_and_meta(self, tmp_path, capsys):
        base = tmp_path / "grid"
        code, out, _ = run(capsys, "scan", "--plane", "gamma",
                           "--x", "0:3:6", "--y", "-2:6:8", "--out", str(base))
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "x,y,trace,class"
        assert len(lines) == 1 + 6 * 8
        meta = json.loads((tmp_path / "grid.meta.json").read_text())
        assert meta["config"]["plane"] == "gamma"
        assert meta["config"]["resolution"] == [6, 8]
        assert "wall_time_s" in meta

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ("scan", "--plane", "omega", "--x", "0.5:2:3", "--y", "0.2:0.8:4")
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_worker_count_invariant(self, tmp_path, capsys, monkeypatch):
        args = ("scan", "--plane", "gamma", "--x", "0.5:2:3", "--y", "-1:2:4")
        run(capsys, *args, "--out", str(tmp_path / "w1"), "--workers", "1")
        run(capsys, *args, "--out", str(tmp_path / "w2"), "--workers", "2")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
        # the environment variable takes precedence over the flag
        monkeypatch.setenv("HILLDUFFING_WORKERS", "2")
        run(capsys, *args, "--out", str(tmp_path / "w3"), "--workers", "1")
        meta = json.loads((tmp_path / "w3.meta.json").read_text())
        assert meta["config"]["workers"] == 2
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()

    def test_paper_figures_level(self, tmp_path, capsys):
        code, _, _ = run(capsys, "scan", "--plane", "gamma", "--x", "0.5:1:2",
                         "--y", "0:1:2", "--paper-figures",
                         "--out", str(tmp_path / "pf"))
        assert code == 0
        meta = json.loads((tmp_path / "pf.meta.json").read_text())
        assert meta["config"]["level_threshold"] == pytest.approx(1.98)

    def test_usage_error_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "scan", "--plane", "gamma",
                           "--x", "3:0:5", "--y", "0:1:2",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["1:2:2.5", "a:b:c", "1:x:3", "1:2", "1:2:3:4"])
    def test_malformed_range_is_quoted(self, text, tmp_path, capsys):
        code, _, err = run(capsys, "scan", "--plane", "gamma", "--x", text, "--y", "0:1:2",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith("error: range must look like lo:hi:count") and repr(text) in err
        assert not (tmp_path / "x.csv").exists()

    def test_io_error_exit_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "scan", "--plane", "gamma",
                           "--x", "0.5:1:2", "--y", "0:1:2",
                           "--out", str(tmp_path / "missing" / "x"))
        assert code == 3
        assert "i/o error" in err


class TestCriteriaMapCommand:
    def test_gamma_plane_cells(self, tmp_path, capsys):
        code, _, _ = run(capsys, "criteria-map", "--plane", "gamma",
                         "--x", "1:2:2", "--y", "-1:3:2",
                         "--out", str(tmp_path / "cm"))
        assert code == 0
        lines = (tmp_path / "cm.csv").read_text().splitlines()
        assert lines[0] == "x,y,li_zhang,zhukovskii,burdina"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
        assert rows[("1", "-1")] == ["I", "I", "I"]
        assert rows[("1", "3")][2] == "S"

    def test_omega_plane_cell(self, tmp_path, capsys):
        run(capsys, "criteria-map", "--plane", "omega", "--x", "0.5:1:2",
            "--y", "4:5:2", "--criteria", "burdina", "--out", str(tmp_path / "cw"))
        lines = (tmp_path / "cw.csv").read_text().splitlines()
        assert lines[0] == "x,y,burdina"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[1:]}
        assert rows[("0.5", "4")] == ["S"]

    def test_unknown_criterion_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "criteria-map", "--plane", "gamma",
                         "--x", "1:2:2", "--y", "1:2:2",
                         "--criteria", "lyapunov", "--out", str(tmp_path / "x"))
        assert code == 2


class TestTongueBracketCommand:
    def test_exact_boundary(self, tmp_path, capsys):
        out_file = tmp_path / "bracket.json"
        code, out, _ = run(capsys, "tongue-bracket", "--plane", "gamma",
                           "--ell", "1", "--delta", "1", "--threshold", "2.0",
                           "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["lower"] == pytest.approx(1.0, abs=1e-4)
        assert payload["upper"] == pytest.approx(1.5, abs=1e-4)
        assert "lower=" in out


class TestBeamCommand:
    def test_stable_run_writes_trajectory(self, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "beam", "--m", "1", "--n", "2",
                           "--delta", "0.5", "--horizon", "50",
                           "--out", str(traj))
        assert code == 0
        assert "no_transfer_observed" in out
        lines = traj.read_text().splitlines()
        assert lines[0] == "t,w,w_dot,z,z_dot,energy"
        assert len(lines) > 100

    def test_scaled_pair_matches(self, capsys):
        code1, out1, _ = run(capsys, "beam", "--m", "1", "--n", "2",
                             "--delta", "3.01", "--horizon", "60")
        code2, out2, _ = run(capsys, "beam", "--m", "2", "--n", "4",
                             "--delta", "3.01", "--horizon", "60")
        assert code1 == code2 == 0
        assert "energy_transfer" in out1
        assert "energy_transfer" in out2


class TestVerifyCommand:
    def test_elliptic_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "elliptic")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out


class TestDuffingEvalCommand:
    def test_stdout_table(self, capsys):
        code, out, _ = run(capsys, "duffing-eval", "--delta", "1", "--t", "0:1:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,y,y_dot"
        assert lines[1] == "0,1,0"
        assert any(line.startswith("period: 4.768022029102") for line in lines)
        assert any(line.startswith("energy: 0.75") for line in lines)

    def test_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "duff.csv"
        code, _, _ = run(capsys, "duffing-eval", "--delta", "2", "--omega", "4",
                         "--t", "0:5:11", "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 12
