"""Degree-distribution dynamics of randomly evolving networks.

The package solves the nonlocal transport equation for the degree
generating function G(x, t) by the method of characteristics, constructs
stationary profiles, integrates a truncated master-equation reference,
and simulates the underlying stochastic network process.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    ConvergenceSeries,
    FitResult,
    decay_norms,
    detect_bend,
    diff_norms,
    fit_rate,
)
from .characteristics import CharacteristicSolver, SolutionField, solve_grid
from .config import ExperimentConfig, parse_config
from .degree_ode import (
    DistributionTrajectory,
    TruncatedDistribution,
    first_moment,
    gf_eval,
    integrate,
    master_rhs,
)
from .errors import (
    AbsorbingStateReached,
    AccuracyError,
    DegenerateSeedError,
    DegreeFlowError,
    DomainError,
    IntegrationError,
    NoSteadyStateError,
    TruncationError,
    ValidationError,
    WorkerError,
)
from .graphsim import Network, SimConfig, SimResult, run
from .initial import InitialCondition
from .model import (
    Degeneracy,
    ProcessRates,
    RiccatiCoefficients,
    SteadyConstants,
    derive_riccati,
    steady_constants,
)
from .riccati import (
    ClosedFormMoment,
    equilibrium,
    moment_rhs,
    solve_closed_form,
)
from .steady import (
    SteadyCase,
    SteadyCaseTag,
    SteadyState,
    construct,
    explicit_constants,
    residual,
    steady_from_rates,
)

__all__ = [
    "AbsorbingStateReached",
    "AccuracyError",
    "CharacteristicSolver",
    "ClosedFormMoment",
    "ConvergenceSeries",
    "DegenerateSeedError",
    "Degeneracy",
    "DegreeFlowError",
    "DistributionTrajectory",
    "DomainError",
    "ExperimentConfig",
    "FitResult",
    "InitialCondition",
    "IntegrationError",
    "Network",
    "NoSteadyStateError",
    "ProcessRates",
    "RiccatiCoefficients",
    "SimConfig",
    "SimResult",
    "SolutionField",
    "SteadyCase",
    "SteadyCaseTag",
    "SteadyConstants",
    "SteadyState",
    "TruncatedDistribution",
    "TruncationError",
    "ValidationError",
    "WorkerError",
    "construct",
    "decay_norms",
    "derive_riccati",
    "detect_bend",
    "diff_norms",
    "equilibrium",
    "explicit_constants",
    "first_moment",
    "fit_rate",
    "gf_eval",
    "integrate",
    "master_rhs",
    "moment_rhs",
    "parse_config",
    "residual",
    "run",
    "solve_closed_form",
    "solve_grid",
    "steady_constants",
    "steady_from_rates",
]
