"""A scan's class column at the edges of the boundary band: every cell's code
is the index in ``Stability`` of ``classify_trace`` on its trace, or 3 ("nan")
for a NaN trace, with the lane kernel stubbed to return traces exactly at
+-(2 -+ tol_boundary), their neighbouring floats, +-inf, +-0 and NaN."""

import math

import numpy as np
import pytest

from hillduffing import Plane, Stability, scan, tongues
from hillduffing.errors import DomainError
from hillduffing.hill import LaneTraces, classify_trace

BANDS = [0.0, 1e-4, 0.02, 1.5]


def edge_traces(band: float) -> list[float]:
    """Traces at and next to both band edges, of either sign, and the specials."""
    edges = [2.0 - band, 2.0 + band]
    near = [np.nextafter(e, side) for e in edges for side in (-math.inf, math.inf)]
    mags = edges + [float(v) for v in near] + [math.inf, 0.0]
    return mags + [-m for m in mags] + [math.nan]


@pytest.fixture
def grid_of(monkeypatch):
    """``grid_of(traces, band)``: a two-column gamma scan at 1 worker whose every
    column holds ``traces``, classified against ``band``."""
    def grid_of(traces, band):
        def stub(delta, a, b, tol):
            shape = np.broadcast_shapes(np.shape(delta), np.shape(a), np.shape(b))
            return LaneTraces(np.broadcast_to(traces, shape).copy(), 0, 0)

        monkeypatch.setattr(tongues, "lane_traces", stub)
        return scan(Plane.GAMMA, (0.5, 1.0), (0.0, 2.0), (2, len(traces)),
                    tol_boundary=band, workers=1)
    return grid_of


@pytest.mark.parametrize("band", BANDS)
def test_codes_match_classify_trace(band, grid_of):
    traces = edge_traces(band)
    grid = grid_of(traces, band)
    assert grid.classification.dtype == np.int8
    assert np.array_equal(grid.trace, np.array([traces, traces]), equal_nan=True)
    want = [tongues.FAILED_CODE if math.isnan(t)
            else list(Stability).index(classify_trace(t, band)) for t in traces]
    assert grid.classification.tolist() == [want, want]
    assert grid.meta["failed_cells"] == 2
    for t, code in zip(traces, want):
        name = "nan" if math.isnan(t) else classify_trace(t, band).value
        assert tongues.CLASS_NAMES[code] == name


@pytest.mark.parametrize("band", BANDS)
def test_band_edges_belong_to_the_band(band, grid_of):
    lo, hi = 2.0 - band, 2.0 + band
    traces = [lo, -lo, hi, -hi, float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, math.inf))]
    assert grid_of(traces, band).classification[0].tolist() == [2, 2, 2, 2, 0, 1]


@pytest.mark.parametrize("band", BANDS)
def test_float_and_numpy_scalar_classify_alike(band):
    for t in edge_traces(band):
        if math.isnan(t):
            for x in (t, np.float64(t)):
                with pytest.raises(DomainError, match="trace is NaN"):
                    classify_trace(x, band)
        else:
            assert classify_trace(float(t), band) is classify_trace(np.float64(t), band)
            assert classify_trace(t, np.float64(band)) is classify_trace(t, band)
