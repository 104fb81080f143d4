"""Two-mode truncation of the hinged nonlinear beam.

Projecting the beam equation onto sin(m x) and sin(n x) gives the coupled
Hamiltonian system

    w'' + m^4 w + m^2 (m^2 w^2 + n^2 z^2) w = 0
    z'' + n^4 z + n^2 (m^2 w^2 + n^2 z^2) z = 0.

With z = z' = 0 the first equation is a scaled Duffing oscillator and
(w, z) = (Theta_m, 0) is a single-mode solution.  Seeding z with a tiny
fraction of delta and watching whether it grows detects the energy
transfer between modes; the linearized counterpart is a Hill equation in
the frequency ratio omega = n^2/m^2, handled by ``mode_stability``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .duffing import DuffingParams, period
from .errors import DomainError, require_count, require_in
from .hill import DEFAULT_TOL, DEFAULT_TOL_BOUNDARY, Plane, Stability, classify_trace
from .hill import monodromy  # noqa: F401  (bench/spans.py patches beam.monodromy)
from .integrate import solve_sampled
from .tongues import trace_at

# |z| must exceed this multiple of its initial amplitude to count as an
# energy transfer; calibrated so that weakly unstable cases (saturating
# near 50x) are caught while stable cases (staying under ~2x) are not
DEFAULT_GROWTH_FACTOR = 25.0


@dataclass(frozen=True)
class ModePair:
    """Spatial mode numbers (m, n) of the two retained beam modes."""

    m: int
    n: int

    def __post_init__(self) -> None:
        require_count("mode number m", self.m, 1)
        require_count("mode number n", self.n, 1)
        if self.m == self.n:
            raise DomainError("mode numbers must differ")

    @property
    def omega(self) -> float:
        """Squared frequency ratio n^2 / m^2 governing two-mode stability."""
        return (self.n / self.m) ** 2


@dataclass(frozen=True)
class BeamState:
    w: float
    w_dot: float
    z: float
    z_dot: float
    t: float = 0.0


class TransferVerdict(enum.Enum):
    ENERGY_TRANSFER = "energy_transfer"
    NO_TRANSFER_OBSERVED = "no_transfer_observed"


@dataclass(frozen=True)
class SimulationResult:
    """Trajectory and transfer verdict of one two-mode run.

    ``trajectory`` has columns (t, w, w_dot, z, z_dot, energy), down-sampled
    to a fixed number of rows; ``onset_time`` is the first time |z|
    exceeded the detection threshold (None when no transfer was seen).
    """

    pair: ModePair
    delta: float
    z_ratio: float
    horizon: float
    verdict: TransferVerdict
    onset_time: float | None
    threshold: float
    max_abs_z: float
    trajectory: np.ndarray


def _two_mode_rhs(pair: ModePair):
    """The coupled system as y' = rhs(t, y) with y = (w, w', z, z') an array.

    The state is unpacked into Python floats, which is cheaper per call than
    numpy-scalar arithmetic and gives the same IEEE results."""
    m2 = float(pair.m * pair.m)
    n2 = float(pair.n * pair.n)

    def rhs(t: float, y: np.ndarray):
        w, wd, z, zd = y.tolist()
        coupling = m2 * w * w + n2 * z * z
        return (wd, -(m2 * m2 + m2 * coupling) * w, zd, -(n2 * n2 + n2 * coupling) * z)

    return rhs


def coupled_rhs(pair: ModePair, state: BeamState) -> tuple[float, float, float, float]:
    """Right-hand side (w', w'', z', z'') of the coupled two-mode system."""
    y = np.array([state.w, state.w_dot, state.z, state.z_dot], dtype=float)
    return _two_mode_rhs(pair)(state.t, y)


def energy(pair: ModePair, state: BeamState) -> float:
    """Conserved energy w'^2/2 + z'^2/2 + m^4 w^2/2 + n^4 z^2/2
    + (m^2 w^2 + n^2 z^2)^2 / 4."""
    row = np.array([[state.w, state.w_dot, state.z, state.z_dot]], dtype=float)
    return float(_energy_rows(pair, row)[0])


def _energy_rows(pair: ModePair, states: np.ndarray) -> np.ndarray:
    m2 = float(pair.m * pair.m)
    n2 = float(pair.n * pair.n)
    w, wd, z, zd = states.T
    coupling = m2 * w * w + n2 * z * z
    return 0.5 * wd**2 + 0.5 * zd**2 + 0.5 * m2 * m2 * w**2 + 0.5 * n2 * n2 * z**2 \
        + 0.25 * coupling**2


def simulate(
    pair: ModePair,
    delta: float,
    z_ratio: float = 1e-3,
    horizon: float | None = None,
    tol: float = DEFAULT_TOL,
    growth_factor: float = DEFAULT_GROWTH_FACTOR,
    samples: int = 4096,
) -> SimulationResult:
    """Integrate the two-mode system from (delta, 0, z_ratio * delta, 0).

    An energy transfer is reported when |z(t)| exceeds ``growth_factor``
    times its initial amplitude within the horizon (default horizon:
    50 periods of the omega-scaled single-mode solution).  The trajectory
    is integrated at full adaptive resolution and down-sampled to
    ``samples`` rows for output.
    """
    params = DuffingParams(delta, pair.omega)
    require_in("z_ratio", z_ratio, 0.0, 0.1, "(]")
    if horizon is None:
        horizon = 50.0 * period(params)
    require_in("horizon", horizon, 0.0, math.inf)
    require_in("growth_factor", growth_factor, 1.0, math.inf)
    samples = require_count("samples", samples, 1)

    # sample densely enough to resolve the fast mode's envelope
    fast = max(pair.m, pair.n) ** 2
    n_internal = int(min(200_000, max(samples, 24.0 * horizon * fast / (2.0 * math.pi))))
    ts = np.linspace(0.0, horizon, n_internal)
    y0 = (float(delta), 0.0, z_ratio * float(delta), 0.0)
    states = solve_sampled(_two_mode_rhs(pair), 0.0, horizon, y0, tol, ts)

    threshold = growth_factor * z_ratio * abs(delta)
    abs_z = np.abs(states[:, 2])
    exceeded = np.flatnonzero(abs_z > threshold)
    onset = float(ts[exceeded[0]]) if exceeded.size else None

    keep = np.linspace(0, n_internal - 1, min(samples, n_internal)).round().astype(int)
    trajectory = np.column_stack(
        [ts[keep], states[keep], _energy_rows(pair, states[keep])]
    )
    return SimulationResult(
        pair=pair,
        delta=float(delta),
        z_ratio=float(z_ratio),
        horizon=float(horizon),
        verdict=(TransferVerdict.NO_TRANSFER_OBSERVED if onset is None
                 else TransferVerdict.ENERGY_TRANSFER),
        onset_time=onset,
        threshold=float(threshold),
        max_abs_z=float(abs_z.max()),
        trajectory=trajectory,
    )


def mode_stability(
    pair: ModePair,
    delta: float,
    tol: float = DEFAULT_TOL,
    tol_boundary: float = DEFAULT_TOL_BOUNDARY,
) -> Stability:
    """Floquet verdict for the single-mode solution against the other mode.

    Linearizing the coupled system around (Theta_m, 0) gives the Hill
    equation of the omega plane at (delta, n^2/m^2), decided by its
    ``trace_at``, so the verdict is invariant under (m, n) -> (km, kn).
    """
    classify_trace(0.0, tol_boundary)  # rejects a bad band before integrating
    return classify_trace(trace_at(Plane.OMEGA, delta, pair.omega, tol=tol), tol_boundary)

