"""Resonance-tongue structure in the (delta, gamma) and (delta, omega) planes.

The instability regions ("tongues") of the squared-Duffing Hill equation
emanate from gamma = l^2 (respectively omega = l) on the zero-amplitude
axis.  This module provides the numeric machinery around them: rectangular
trace scans, the exact first-tongue boundary, small-amplitude parabolic
bounds for the higher tongues, level-set bracketing of tongue boundaries
along one parameter line, the large-amplitude classification sets, and the
tabulated number of resonance-line crossings per frequency ratio.

The plane model ``Plane`` lives in ``hill`` and is re-exported here; only
the per-plane tongue formulas stay in this module (seed windows, parabolic
bounds and the bracket's positive floor on omega).
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .duffing import _DELTA_MAX
from .errors import (BracketNotFound, DomainError, IntegrationFailure, require_count,
                     require_finite, require_in)
from .hill import (
    DEFAULT_TOL,
    DEFAULT_TOL_BOUNDARY,
    Plane,
    _class_codes,
    _FAILED_CODE as FAILED_CODE,
    lane_traces,
    monodromy,  # noqa: F401  (bench/spans.py patches tongues.monodromy)
)

CLASS_NAMES = {0: "stable", 1: "unstable", 2: "boundary", FAILED_CODE: "nan"}
_WALK_CHUNK = 8  # outward-walk candidates per lane batch
_BLOCK_LANES = 2048  # about this many cells per grid task, in whole columns
_MAX_RECOUNT_LANES = 10**6  # grid points of one recount batch (``recount_crossings``)


class StripVerdict(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    OUTSIDE = "outside"


class AsymptoticClass(enum.Enum):
    STABLE_AT_INFINITY = "stable_at_infinity"
    UNSTABLE_AT_INFINITY = "unstable_at_infinity"
    BOUNDARY = "boundary"


def axis_values(lo: float, hi: float, count: int) -> np.ndarray:
    """Inclusive-endpoint axis lo + i (hi - lo) / (count - 1), reproducible
    without accumulation error."""
    count = require_count("resolution", count, 2)
    require_in(f"width of the range ({lo}, {hi})", hi - lo, 0.0, math.inf)
    i = np.arange(count, dtype=float)
    return lo + i * ((hi - lo) / (count - 1))


def trace_at(plane: Plane, delta: float, y: float, tol: float = DEFAULT_TOL) -> float:
    """Monodromy trace at one point of the chosen parameter plane, on the lane
    kernel (not bit for bit ``monodromy``'s).  A point with no coefficient raises the
    ``DomainError`` of ``Plane.params``; a failed lane raises ``IntegrationFailure``.
    The lane (a, b) = (w y, w) is formed on floats; ``lane_traces`` takes its
    amplitude rule and series row on floats and then runs the batch tail on one
    lane, bit for bit the one-lane ``_line`` value."""
    plane.params(delta, y)
    y = float(y)
    w = plane.scale(y)  # positive: Plane.params accepts no other
    trace = float(lane_traces(float(delta), w * y, w, tol=tol).trace)
    if math.isnan(trace):
        raise IntegrationFailure(f"a lane failed on the {plane.value} line")
    return trace


def map_cells(fn: Callable, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, over a process pool of
    ``min(workers, len(tasks))`` workers when that is more than one, so a
    single task never starts a pool; each worker gets about four chunks of
    tasks.  A ``workers`` that ``require_count`` rejects raises a ``DomainError``
    whatever the number of tasks.  Grid commands come through ``map_columns``."""
    workers = min(require_count("workers", workers, 1), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    return [fn(t) for t in tasks]


def map_columns(fn: Callable, xs: np.ndarray, ys: np.ndarray, workers: int, *args) -> list:
    """``map_cells`` of ``fn((block, ys, *args))`` over blocks of consecutive
    whole columns of the grid ``xs`` by ``ys``, each at least one column and
    about ``_BLOCK_LANES`` cells; they depend on the grid's shape only, never
    on ``workers``, so the results do not, and one block starts no pool."""
    cols = max(1, _BLOCK_LANES // ys.size)
    return map_cells(fn, [(xs[i:i + cols], ys, *args) for i in range(0, xs.size, cols)], workers)


def _refine_peak(f: Callable[[float], float], a: float, b: float,
                 xatol: float) -> tuple[float, float]:
    """Bounded maximisation of ``f`` on [a, b]: the maximiser and f there."""
    res = minimize_scalar(lambda y: -f(y), bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    return float(res.x), float(-res.fun)


def _near_misses(vals: np.ndarray, level: float, band: float) -> np.ndarray:
    """Indices of the interior local maxima of the sampled |trace| ``vals``
    in (level - band, level], where a tongue thinner than the sampling may hide."""
    mid = vals[1:-1]
    return np.flatnonzero((mid > level - band) & (mid <= level)
                          & (mid >= vals[:-2]) & (mid >= vals[2:])) + 1


def _line(plane: Plane, delta, ys, tol: float) -> np.ndarray:
    """Traces at the broadcast points (delta, ys) as one batch of lanes; a failed lane raises."""
    trace = lane_traces(delta, *plane.lane_pair(ys), tol=tol).trace
    if np.isnan(trace).any():
        raise IntegrationFailure(f"a lane failed on the {plane.value} line")
    return trace


def _scan_block(task: tuple[np.ndarray, np.ndarray, Plane, float]):
    """The ``hill.LaneTraces`` of the block of grid columns ``xs`` by ``ys``, one batch."""
    xs, ys, plane, tol = task
    return lane_traces(xs[:, None], *plane.lane_pair(ys), tol=tol)


@dataclass
class StabilityGrid:
    """Rectangular scan of monodromy traces over a parameter plane.

    ``trace[i, j]`` and ``classification[i, j]`` correspond to
    (x_values[i], y_values[j]); failed cells carry NaN trace and the code
    3 ("nan").  ``meta`` echoes every parameter that influenced the data.
    """

    plane: Plane
    x_values: np.ndarray
    y_values: np.ndarray
    trace: np.ndarray
    classification: np.ndarray
    meta: dict = field(default_factory=dict)

    def class_name(self, i: int, j: int) -> str:
        return CLASS_NAMES[int(self.classification[i, j])]

    def csv_rows(self) -> Iterable[str]:
        """Data rows 'x,y,trace,class' with 17-significant-digit floats; each
        y is formatted once per grid and each x once per column."""
        yield "x,y,trace,class"
        ys = ["%.17g," % y for y in self.y_values.tolist()]
        classes = {code: "," + name for code, name in CLASS_NAMES.items()}
        for x, traces, codes in zip(self.x_values.tolist(), self.trace, self.classification):
            x_text = "%.17g," % x
            for y, t, c in zip(ys, traces.tolist(), codes.tolist()):
                yield x_text + y + "%.17g" % t + classes[c]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for row in self.csv_rows():
                fh.write(row + "\n")


def scan(
    plane: Plane,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: tuple[int, int],
    integrator_tol: float = DEFAULT_TOL,
    tol_boundary: float = DEFAULT_TOL_BOUNDARY,
    workers: int = 1,
) -> StabilityGrid:
    """Fill a StabilityGrid with the monodromy trace of every cell.

    Each block of whole columns from ``map_columns`` is integrated by
    ``hill.lane_traces`` as one batch of lanes to half the period.  Traces
    therefore differ from ``trace_at``'s within the integration error, not
    bit for bit, and the output is byte-identical for any number of
    workers.  Cells whose coefficient is invalid (delta = 0, omega <= 0) or
    whose integration fails alone are recorded as NaN; the scan itself
    never aborts.  The blocks return traces only: ``classify_trace``'s rule
    then classifies the whole grid in one array comparison, NaN as "nan".
    ``meta`` adds the number of lane batches ``blocks``, the
    summed integration ``steps`` and right-hand-side calls ``rhs_evals``
    (each covering a whole block), the largest Wronskian residual
    ``det_residual_max`` (``hill.LaneTraces``) and ``failed_cells``.
    """
    xs = axis_values(*x_range, resolution[0])
    ys = axis_values(*y_range, resolution[1])
    _class_codes(0.0, tol_boundary)  # rejects a bad band up front
    results = map_columns(_scan_block, xs, ys, workers, plane, float(integrator_tol))

    trace = np.concatenate([r.trace for r in results])
    classification = _class_codes(trace, tol_boundary).astype(np.int8)
    meta = {
        "plane": plane.value,
        "x_range": [float(x_range[0]), float(x_range[1])],
        "y_range": [float(y_range[0]), float(y_range[1])],
        "resolution": [int(resolution[0]), int(resolution[1])],
        "integrator_tol": float(integrator_tol),
        "tol_boundary": float(tol_boundary),
        "level_threshold": 2.0 - float(tol_boundary),
        "blocks": len(results),
        "steps": sum(r.steps for r in results),
        "rhs_evals": sum(r.rhs_evals for r in results),
        "det_residual_max": max(r.det_residual for r in results),
        "failed_cells": int(np.count_nonzero(classification == FAILED_CODE)),
    }
    return StabilityGrid(plane, xs, ys, trace, classification, meta)


def first_tongue_gamma(delta: float) -> tuple[float, float]:
    """Exact boundary (1, 1 + delta^2/2) of the first gamma-plane tongue."""
    d = require_in("delta", delta, -_DELTA_MAX, _DELTA_MAX, "[]")
    return (1.0, 1.0 + d * d / 2.0)


def stability_strip_gamma(delta: float, gamma: float) -> StripVerdict:
    """Analytic strip verdict: stable for -delta^2/2 < gamma < 1, unstable
    below the parabola, no claim elsewhere."""
    d = require_in("delta", delta, -_DELTA_MAX, _DELTA_MAX, "[]")
    require_finite(gamma=gamma)
    d2 = d * d
    if -d2 / 2.0 < gamma < 1.0:
        return StripVerdict.STABLE
    if gamma < -d2 / 2.0:
        return StripVerdict.UNSTABLE
    return StripVerdict.OUTSIDE


def asymptotic_tongue_bounds(plane: Plane, ell: int, delta: float) -> tuple[float, float]:
    """Small-amplitude parabolic bounds of tongue ``ell`` (valid up to
    O(delta^4) as delta -> 0; only the amplitude bound is enforced, and a
    ``DomainError`` naming delta is raised where the upper bound is not a float)."""
    ell = require_count("ell", ell, 2)  # parabolic bounds exist for ell >= 2 only
    d = require_in("delta", delta, -_DELTA_MAX, _DELTA_MAX, "[]")
    d2 = d * d
    if plane is Plane.GAMMA:
        center = ell * ell + (3.0 * ell * ell / 4.0 - 0.5) * d2
        half = d2 / (math.pi * ell)
    else:
        center = ell + (3.0 * ell / 8.0 - 0.25) * d2
        half = d2 / (2.0 * math.pi * ell)
    # d^2 times the centre's factor can overflow; with half >= 0 the upper bound does so first
    require_finite(**{f"upper bound of tongue {ell} at delta = {delta!r}": center + half})
    return (center - half, center + half)


@dataclass(frozen=True)
class TongueBoundarySample:
    """Located |trace| = threshold crossings around one tongue at fixed delta.

    ``lower`` and ``upper`` are the two crossing parameters (gamma or
    omega), each within the bisection tolerance; ``peak`` is the point that
    seeded the walks, and ``peak_trace`` |trace| there: the highest window
    sample when one passes the threshold, taken unrefined, else a refined near
    miss, so neither need be the tongue's maximum.
    """

    ell: int
    delta: float
    lower: float
    upper: float
    threshold: float
    peak: float
    peak_trace: float


def _seed_window(plane: Plane, ell: int, delta: float) -> tuple[float, float]:
    d2 = delta * delta
    if ell == 1:
        if plane is Plane.GAMMA:
            lo, hi = first_tongue_gamma(delta)
            pad = 0.15 * (hi - lo) + 0.02
            return (lo - pad, hi + pad)
        # upper boundary grows like (1/8 + 1/(2 pi)) delta^2 and tends to 3
        span = min((0.125 + 0.5 / math.pi) * d2, 2.1)
        return (1.0 - 0.05 * (1.0 + span), 1.0 + 1.15 * span + 0.05)
    lo, hi = asymptotic_tongue_bounds(plane, ell, delta)
    pad = max(3.0 * (hi - lo), 0.05)
    return (lo - pad, hi + pad)


def trace_level_bracket(
    plane: Plane,
    ell: int,
    delta: float,
    threshold: float | None = None,
    integrator_tol: float = DEFAULT_TOL,
    bisect_tol: float = 1e-6,
    samples: int = 257,
) -> TongueBoundarySample:
    """Bracket the two |trace| = threshold crossings around tongue ``ell``.

    The window is seeded from the exact first-tongue boundary (ell = 1) or
    the parabolic bounds (ell >= 2), generously padded because those are
    only small-amplitude asymptotics.  The window is one batch of lanes; with no
    sample above the threshold, each near miss (``_near_misses`` within 0.6
    below it) is refined once on ``trace_at``, highest first.  A walk with
    growing steps, ``_WALK_CHUNK`` candidates per batch, goes from the refined point
    to the stable side, and ``brentq`` on ``trace_at`` bisects the last step.

    Raises
    ------
    BracketNotFound
        If no interior point with |trace| above the threshold is detected
        (thin tongues can fall below any fixed sampling resolution), or
        the walk reaches the omega floor with |trace| still above it.
    """
    ell = require_count("ell", ell, 1)
    require_in("delta", delta, 0.0, _DELTA_MAX, "(]")
    if threshold is None:
        threshold = 2.0 - DEFAULT_TOL_BOUNDARY
    threshold = require_in("threshold", threshold, 0.0, 2.0, "(]")
    require_in("bisect_tol", bisect_tol, 0.0, math.inf)
    samples = require_count("samples", samples, 2)

    y_floor = 1e-9 if plane is Plane.OMEGA else -math.inf

    def abs_trace(y: float) -> float:
        return abs(trace_at(plane, delta, y, tol=integrator_tol))

    lo, hi = _seed_window(plane, ell, delta)
    lo = max(lo, y_floor)
    for _ in range(3):
        ys = np.linspace(lo, hi, samples)
        vals = np.abs(_line(plane, delta, ys, integrator_tol))
        top = int(np.argmax(vals))
        if vals[top] > threshold:
            peak_y = float(ys[top])
            peak_val = abs_trace(peak_y)
            break
        near = _near_misses(vals, threshold, 0.6)
        refined = (_refine_peak(abs_trace, ys[i - 1], ys[i + 1], 1e-9)
                   for i in near[np.argsort(-vals[near], kind="stable")])
        peak_y, peak_val = next((p for p in refined if p[1] > threshold), (None, None))
        if peak_y is not None:
            break
        width = hi - lo
        lo = max(lo - 0.5 * width, y_floor)
        hi = hi + 0.5 * width
    if peak_y is None:
        raise BracketNotFound(
            f"no |trace| > {threshold} point found for tongue {ell} at delta={delta}"
        )

    def crossing(direction: int) -> float:
        # up to 200 candidates ys[1:]; the first at or past y_floor is clipped, not evaluated
        step = (hi - lo) / samples
        ys = [peak_y, peak_y + direction * step]
        while len(ys) <= 200 and ys[-1] > y_floor:
            ys.append(ys[-1] + direction * step)
            step *= 1.3
        end = len(ys) - (ys[-1] <= y_floor)
        ys[-1] = max(ys[-1], y_floor)
        for i in range(1, end, _WALK_CHUNK):
            chunk = ys[i:min(i + _WALK_CHUNK, end)]
            below = np.flatnonzero(np.abs(_line(plane, delta, chunk, integrator_tol)) < threshold)
            if below.size:
                end = i + int(below[0])
                break
        if end == len(ys):  # neither below the threshold nor clipped
            raise BracketNotFound("stable side not reached during outward walk")
        a, b = sorted((ys[end - 1], ys[end]))
        try:
            return float(brentq(lambda y: abs_trace(y) - threshold, a, b, xtol=bisect_tol))
        except DomainError:
            raise
        except ValueError:  # no sign change, as at a clipped y_floor with |trace| above
            raise BracketNotFound(f"|trace| does not cross {threshold} between {a!r} and "
                                  f"{b!r}; the {plane.value} floor is {y_floor!r}") from None

    lower = crossing(-1)
    upper = crossing(+1)
    return TongueBoundarySample(ell, float(delta), lower, upper, threshold, peak_y, peak_val)


def asymptotic_classification(omega: float) -> AsymptoticClass:
    """Large-amplitude verdict from the interval families
    I_U = U_k ((k+1)(2k+1), (k+1)(2k+3)) and
    I_S = U_k (k(2k+1), (k+1)(2k+1)); shared endpoints are Boundary.

    The endpoints are the triangular numbers T_n = n(n+1)/2: I_S holds the
    gaps (T_n, T_{n+1}) with n even and I_U those with n odd.
    """
    omega = require_in("omega", omega, 0.0, math.inf)
    # largest n with T_n <= omega, exactly: T_n is an integer, so
    # T_n <= omega iff (2n+1)^2 <= 8 floor(omega) + 1
    n = (math.isqrt(8 * math.floor(omega) + 1) - 1) // 2
    if omega == n * (n + 1) // 2:
        return AsymptoticClass.BOUNDARY
    if n % 2 == 0:
        return AsymptoticClass.STABLE_AT_INFINITY
    return AsymptoticClass.UNSTABLE_AT_INFINITY


# the paper's counts on the gaps (j - 1, j] of omega, j = 1..7, and on the
# resonant lines omega = 1 (no count), 3 and 6
_GAP_CROSSINGS = (0, 1, 3, 4, 6, 8, 9)
_LINE_CROSSINGS = {1.0: None, 3.0: 2, 6.0: 7}


def crossing_count(omega: float) -> int:
    """Tabulated minimum number of resonance-line crossings met along
    delta from 0 to infinity at fixed frequency ratio ``omega``.

    The parity determines the final regime: starting stable near delta=0,
    an even count ends stable at infinity, an odd count unstable.  Only
    the tabulated range 0 < omega <= 7 is covered; omega = 1 lies on a
    resonant line for every delta and has no count.
    """
    omega = require_in("omega", omega, 0.0, 7.0, "(]")
    count = _LINE_CROSSINGS.get(omega, _GAP_CROSSINGS[math.ceil(omega) - 1])
    if count is None:
        raise DomainError(f"omega = {omega!r} lies on a resonant line; no tabulated count")
    return count


def recount_crossings(
    omega: float,
    delta_max: float = 6.0,
    coarse_step: float = 0.01,
    integrator_tol: float = 1e-12,
    near_band: float = 0.1,
) -> int:
    """Recount resonance-line crossings from a fine trace scan along delta.

    The whole delta-grid is one batch of lanes.  Grid cells with |trace| > 2
    mark unstable runs directly: from the stable start near delta = 0,
    every switch between stable and unstable cells is one crossing, so a
    run contributes two, or one when it is still open at ``delta_max``.
    A tongue thinner than the grid leaves a near miss (``_near_misses``
    within ``near_band`` below 2, as in ``trace_level_bracket``); each is
    refined once and counts as a crossing pair if its trace exceeds 2.

    At omega = 2.5 / 4.5 / 5.5 / 6.5 ``crossing_count`` gives 3 / 6 / 8 / 9,
    ``delta_max`` 6 gives 2 / 6 / 5 / 6 and 12 gives 3 / 6 / 6 / 7; both 6s at
    4.5 rest on near misses within 2e-13 of |trace| = 2, inside the
    integration error.  The exact count is ROADMAP item 1.
    A grid of more than ``_MAX_RECOUNT_LANES`` (10^6) points raises a ``DomainError``
    naming ``coarse_step`` before any array is built: one recount batch peaks at
    about 1.3 kB a lane (60,000 lanes: 157 MB against 82 MB), so about 1.3 GB.
    """
    omega = require_in("omega", omega, 0.0, math.inf)
    require_in("coarse_step", coarse_step, 0.0, math.inf)
    require_in("delta_max", delta_max, 0.0, math.inf, "[)")
    require_in("near_band", near_band, 0.0, 2.0, "[)")

    def abs_trace(d: float) -> float:
        return abs(trace_at(Plane.OMEGA, d, omega, tol=integrator_tol))

    stop = delta_max + 0.5 * coarse_step
    # np.arange makes ceil((stop - start) / step) points; count them before building them
    points = float(np.ceil((stop - coarse_step) / coarse_step))
    if not points <= _MAX_RECOUNT_LANES:
        raise DomainError(f"coarse_step grid points must be at most {_MAX_RECOUNT_LANES} "
                          f"(one lane batch), got {points:.17g}")
    deltas = np.arange(coarse_step, stop, coarse_step)
    abstr = np.abs(_line(Plane.OMEGA, deltas, omega, integrator_tol))
    extra = sum(_refine_peak(abs_trace, deltas[i - 1], deltas[i + 1], 1e-8)[1] > 2.0
                for i in _near_misses(abstr, 2.0, near_band))
    return int(np.count_nonzero(np.diff(abstr > 2.0, prepend=False))) + 2 * extra
