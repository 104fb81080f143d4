"""Arguments that need no integration to be judged are judged before any:
a bad classification band in ``monodromy`` and ``mode_stability``, and a
``recount_crossings`` grid with more points than ``require_count`` allows."""

import math

import pytest

from hillduffing import beam, hill, tongues
from hillduffing.errors import DomainError
from hillduffing.hill import monodromy, squared_duffing_coefficient
from hillduffing.tongues import recount_crossings


class Integrated(Exception):
    """Raised by a patched integrator: the call got past its argument checks."""


def integrated(*args, **kwargs):
    raise Integrated


@pytest.mark.parametrize("band", [-1.0, math.nan, 2.0, math.inf])
def test_monodromy_rejects_band_before_integrating(band, monkeypatch):
    monkeypatch.setattr(hill, "solve_final", integrated)
    with pytest.raises(DomainError, match="^tol_boundary must lie in"):
        monodromy(squared_duffing_coefficient(1.0, 0.5), tol_boundary=band)


@pytest.mark.parametrize("band", [math.nan, -1.0, 2.0])
def test_mode_stability_rejects_band_before_integrating(band, monkeypatch):
    monkeypatch.setattr(beam, "trace_at", integrated)
    with pytest.raises(DomainError, match="^tol_boundary must lie in"):
        beam.mode_stability(beam.ModePair(1, 2), 1.0, tol_boundary=band)


def test_good_band_reaches_the_integrator(monkeypatch):
    monkeypatch.setattr(hill, "solve_final", integrated)
    monkeypatch.setattr(beam, "trace_at", integrated)
    with pytest.raises(Integrated):
        monodromy(squared_duffing_coefficient(1.0, 0.5), tol_boundary=0.0)
    with pytest.raises(Integrated):
        beam.mode_stability(beam.ModePair(1, 2), 1.0, tol_boundary=1.5)


@pytest.mark.parametrize("delta_max, coarse_step", [
    (6.0, 1e-300),  # 6e300 points
    (1e300, 1e-300),  # the point count overflows to inf
    (2.0**54, 1.0),  # 2^54 points
])
def test_recount_rejects_a_grid_too_large_to_count(delta_max, coarse_step, monkeypatch):
    monkeypatch.setattr(tongues, "lane_traces", integrated)
    with pytest.raises(DomainError, match="^coarse_step"):
        recount_crossings(1.5, delta_max=delta_max, coarse_step=coarse_step)


@pytest.mark.parametrize("delta_max, coarse_step, points", [(6.0, 0.01, 600), (0.0, 0.01, 0)])
def test_recount_grid_within_the_bound_reaches_the_lanes(delta_max, coarse_step, points,
                                                         monkeypatch):
    seen = []

    def count_lanes(delta, a, b, tol):
        seen.append(delta.size)
        raise Integrated

    monkeypatch.setattr(tongues, "lane_traces", count_lanes)
    with pytest.raises(Integrated):
        recount_crossings(1.5, delta_max=delta_max, coarse_step=coarse_step)
    assert seen == [points]
