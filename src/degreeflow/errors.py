"""Exception hierarchy shared across the package.

Every error raised by degreeflow derives from :class:`DegreeFlowError` so
callers (and the CLI) can map failures onto exit codes without matching on
library internals.
"""

from __future__ import annotations

__all__ = [
    "DegreeFlowError",
    "ValidationError",
    "DomainError",
    "IntegrationError",
    "AccuracyError",
    "TruncationError",
    "NoSteadyStateError",
    "AbsorbingStateReached",
    "WorkerError",
]


class DegreeFlowError(Exception):
    """Base class for all package errors."""


class ValidationError(DegreeFlowError):
    """Invalid user input: rates, initial condition, grid, or config file."""


class DomainError(DegreeFlowError):
    """A mathematical precondition is violated (g(t) <= 0, mu = 0, ...)."""


class IntegrationError(DegreeFlowError):
    """An ODE solve failed to reach its endpoint, or a quadrature missed its tolerance."""


class AccuracyError(DegreeFlowError):
    """A self-check failed beyond its rounding allowance.

    A traced origin fell below x = -1 by more than the trace's clamp of
    1e-6, or the steady constants missed their consistency identity.
    """


class TruncationError(DegreeFlowError):
    """Probability mass leaked past the truncation index; raise K_max."""


class NoSteadyStateError(DegreeFlowError):
    """The rates fix no stationary distribution.

    The first moment diverges, or the rates conserve it, so that it keeps
    its initial value.
    """


class AbsorbingStateReached(DegreeFlowError):
    """All event rates vanished; the simulated graph can no longer change."""


class WorkerError(DegreeFlowError):
    """A worker process of an ensemble run died before it sent its results."""
