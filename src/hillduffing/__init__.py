"""Stability of Hill equations with squared-Duffing coefficients.

The library computes, from scratch where it matters (AGM elliptic
integrals, Jacobi functions, closed-form Duffing solutions), the full
resonance-tongue structure of

    xi'' + (gamma + y(t)^2) xi = 0      and      xi'' + (omega + Theta(t)^2) xi = 0

where y and Theta are periodic Duffing solutions, and applies it to the
energy-transfer instabilities between two modes of a hinged nonlinear
beam.  See the ``cli`` module (or the ``hillduffing`` console script) for
the file-emitting commands.
"""

__version__ = "0.1.0"

from .beam import (
    BeamState,
    ModePair,
    SimulationResult,
    TransferVerdict,
    coupled_rhs,
    mode_stability,
    simulate,
)
from .criteria import (
    Criterion,
    CriterionVerdict,
    Outcome,
    burdina,
    burdina_condition_gamma,
    burdina_condition_omega,
    g_function,
    li_zhang,
    phi,
    psi,
    zhukovskii,
)
from .duffing import DuffingParams, duffing_solution, duffing_velocity, period
from .elliptic import JacobiTriple, complete_K, jacobi, sigma_constant
from .errors import BracketNotFound, DomainError, IntegrationFailure
from .hill import (
    ExactLine,
    MonodromyReport,
    PeriodicCoefficient,
    Plane,
    Stability,
    exact_solution_residual,
    mathieu_coefficient,
    monodromy,
    omega_coefficient,
    squared_duffing_coefficient,
)
from .tongues import (
    AsymptoticClass,
    StabilityGrid,
    StripVerdict,
    TongueBoundarySample,
    asymptotic_classification,
    asymptotic_tongue_bounds,
    crossing_count,
    first_tongue_gamma,
    recount_crossings,
    scan,
    stability_strip_gamma,
    trace_level_bracket,
)

__all__ = [
    "__version__",
    "BeamState", "ModePair", "SimulationResult", "TransferVerdict",
    "coupled_rhs", "mode_stability", "simulate",
    "Criterion", "CriterionVerdict", "Outcome",
    "burdina", "burdina_condition_gamma", "burdina_condition_omega",
    "g_function", "li_zhang", "phi", "psi", "zhukovskii",
    "DuffingParams", "duffing_solution", "duffing_velocity", "period",
    "JacobiTriple", "complete_K", "jacobi", "sigma_constant",
    "BracketNotFound", "DomainError", "IntegrationFailure",
    "ExactLine", "MonodromyReport", "PeriodicCoefficient", "Plane", "Stability",
    "exact_solution_residual", "mathieu_coefficient", "monodromy",
    "omega_coefficient", "squared_duffing_coefficient",
    "AsymptoticClass", "StabilityGrid", "StripVerdict",
    "TongueBoundarySample", "asymptotic_classification",
    "asymptotic_tongue_bounds", "crossing_count", "first_tongue_gamma",
    "recount_crossings", "scan", "stability_strip_gamma", "trace_level_bracket",
]
