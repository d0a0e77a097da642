"""Convergence diagnostics: distance to the stationary profile over time.

Builds norm series ||G(., t) - G*|| from a solved field, fits exponential
versus algebraic decay models to a time window, and detects the
characteristic bend where the worst-approximated point jumps away from the
domain boundary into the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .characteristics import CharacteristicSolver, SolutionField
from .model import real
from .steady import SteadyState

__all__ = [
    "ConvergenceSeries",
    "FitResult",
    "decay_norms",
    "diff_norms",
    "fit_rate",
    "detect_bend",
]


@dataclass
class ConvergenceSeries:
    """Sup and L2 distances to the stationary profile at each output time."""

    times: np.ndarray
    sup_norm: np.ndarray
    l2_norm: np.ndarray
    argmax_x: np.ndarray  # grid point realizing the sup norm


@dataclass(frozen=True)
class FitResult:
    model: str  # "exponential" or "algebraic"
    rate: float  # slope of log-norm against t (exponential) or log t (algebraic)
    r_squared: float
    r2_exponential: float
    r2_algebraic: float
    n_points: int


def _reduce_norms(x: np.ndarray, t: np.ndarray, diff: np.ndarray) -> ConvergenceSeries:
    diff = np.abs(diff)
    sup = diff.max(axis=1)
    arg = x[np.argmax(diff, axis=1)]
    l2 = np.sqrt(np.trapezoid(diff * diff, x, axis=1))
    return ConvergenceSeries(times=t.copy(), sup_norm=sup, l2_norm=l2, argmax_x=arg)


def diff_norms(field: SolutionField, steady: SteadyState) -> ConvergenceSeries:
    """Distance of each time slice of the field to the stationary profile.

    Plain subtraction of the two fields: accurate until the deviation
    approaches the solver floor (around 1e-9 of the field size).  For
    late-time decay measurements below that floor use ``decay_norms``.
    """
    target = np.asarray(steady(field.x), dtype=float)
    return _reduce_norms(field.x, field.t, field.G - target[None, :])


def decay_norms(x_grid, t_grid, rates, h, steady: SteadyState) -> ConvergenceSeries:
    """Distance to the stationary profile via the transported deviation field.

    Solves for D = G - G* directly along characteristics, so sup and L2
    norms keep full relative accuracy even when the deviation has decayed
    far below what subtracting two separately computed fields could
    resolve.  This is the right input for decay-law fits over long time
    windows; ``diff_norms`` suffices when only the early transient matters.
    ``steady`` must be the stationary profile of ``rates``: the deviation
    transport assumes that it solves their own stationary equation.
    """
    D = CharacteristicSolver(rates, h).solve_difference_grid(x_grid, t_grid, steady)
    return _reduce_norms(np.asarray(x_grid, dtype=float), np.asarray(t_grid, dtype=float), D)


def _log_fit(u: np.ndarray, lny: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(u, lny, 1)
    pred = slope * u + intercept
    ss_res = float(np.sum((lny - pred) ** 2))
    ss_tot = float(np.sum((lny - lny.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res == 0.0 else 0.0)
    return float(slope), r2


def fit_rate(
    series: ConvergenceSeries,
    window: tuple[float, float] | None = None,
    norm: str = "sup",
) -> FitResult:
    """Fit the decay law of the norm series on a time window.

    Regresses log-norm against t (exponential model) and against log t
    (algebraic model), and reports the chosen model's slope and R^2.  The
    choice comes from the joint least-squares fit log y = a + b t + c log t
    over the window's points: the decay is exponential when the t term
    changes log y by more across the window than the log t term does,
    |b| (t_hi - t_lo) > |c| log(t_hi / t_lo), and algebraic otherwise.
    Comparing the two R^2 values cannot decide on a short window, where
    both are near 1.
    Needs at least 5 window points with strictly positive norms and times.
    ``window`` is a pair (t_min, t_max) of finite real numbers.
    """
    if norm not in ("sup", "l2"):
        raise ValidationError(f"norm must be 'sup' or 'l2', got {norm!r}")
    y = series.sup_norm if norm == "sup" else series.l2_norm
    t = series.times
    if window is not None:
        try:
            lo, hi = window
        except (TypeError, ValueError):
            raise ValidationError(f"window must be a pair (t_min, t_max), got {window!r}") from None
        mask = (t >= real("window t_min", lo)) & (t <= real("window t_max", hi))
        t, y = t[mask], y[mask]
    if t.size < 5:
        raise ValidationError(f"need at least 5 points in the fit window, got {t.size}")
    if np.any(y <= 0.0):
        raise DomainError("norms must be strictly positive to fit a decay law")
    if np.any(t <= 0.0):
        raise DomainError("fit window must start after t = 0 (log t is used)")
    lny = np.log(y)
    s_exp, r2_exp = _log_fit(t, lny)
    s_alg, r2_alg = _log_fit(np.log(t), lny)
    _, b, c = np.linalg.lstsq(np.column_stack((np.ones_like(t), t, np.log(t))), lny, rcond=None)[0]
    t_lo, t_hi = float(t.min()), float(t.max())
    if abs(b) * (t_hi - t_lo) > abs(c) * math.log(t_hi / t_lo):
        return FitResult("exponential", s_exp, r2_exp, r2_exp, r2_alg, t.size)
    return FitResult("algebraic", s_alg, r2_alg, r2_exp, r2_alg, t.size)


def detect_bend(
    series: ConvergenceSeries,
    boundary: float = -1.0,
    jump: float = 0.1,
) -> float | None:
    """First time the sup-norm maximizer leaves the boundary.

    Returns the earliest output time whose maximizer sits at least ``jump``
    inside the domain while the previous one was within 1e-9 of
    ``boundary``; None when no such transition occurs.  Both must be
    finite real numbers, and ``jump`` must be positive: at 0 or below, a
    maximizer that stays on the boundary would count as leaving it.
    """
    boundary, jump = real("boundary", boundary), real("jump", jump, 0.0, strict=True)
    arg = series.argmax_x
    for i in range(1, arg.size):
        if arg[i - 1] <= boundary + 1e-9 and arg[i] >= boundary + jump:
            return float(series.times[i])
    return None
