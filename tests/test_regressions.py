"""Non-finite inputs, large frequency ratios and the criteria-map pool path."""

import math

import pytest

from hillduffing import (
    AsymptoticClass,
    DomainError,
    asymptotic_classification,
    squared_duffing_coefficient,
)
from hillduffing.cli import main


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
