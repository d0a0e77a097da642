"""Stationary generating functions of the evolving-network PDE.

Stationary profiles G*(x) solve the linear first-order ODE

    0 = (x-1)(c1 x - c2) G*'(x) + ((x-1) c3 - c4) G*(x) + c4 x^m

whose coefficient constants derive from the rates and the equilibrium first
moment.  The equation is singular at x = 1 and (when c1 > 0) at xi = c2/c1,
and the structure of its solution set depends on which constants vanish:
constants-only cases, a one-parameter family with closed form, a purely
algebraic solution, a two-singularity integral construction on the segments
[-1, xi) and (xi, 1], and a series-seeded backward integration when x = 1 is
the only singular point in [-1, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import (
    DegenerateSeedError,
    IntegrationError,
    NoSteadyStateError,
    ValidationError,
)
from .model import Degeneracy, ProcessRates, SteadyConstants, steady_constants

__all__ = [
    "SteadyCaseTag",
    "SteadyCase",
    "SteadyState",
    "explicit_constants",
    "classify",
    "construct",
    "steady_from_rates",
    "residual",
]

_ZTOL = 1e-12  # tie tolerance for vanishing/coinciding constants
_X_LOW = -1.0 - 5e-3  # every construction covers [_X_LOW, 1]
_ONE_TIE = 1e-12  # points this close to 1 count as x = 1
_XI_TIE = 1e-9  # points this close to xi take the continuity value G*(xi)
_STEP = 1e-5  # finite-difference step of SteadyState.derivative
_EXCLUDE = 1e-3  # residuals are neither certified nor reported this close to a singular point
_CERT_TOL = 1e-6  # largest |residual| of a certified profile
_SEED_EPS = 1e-5  # the series seed sits at x = 1 - _SEED_EPS
_QUAD_TOL = 1e-10  # bound on the two-singularity error estimate, relative to max(1, |G*|)


class SteadyCaseTag(enum.Enum):
    ALL_ZERO = "all_zero"  # every continuous function is stationary
    CONSTANTS_ONLY = "constants_only"  # exactly the constant functions
    ZERO_ONLY = "zero_only"  # the zero function is the only solution
    FAMILY = "family"  # one-parameter family, closed form
    ALGEBRAIC = "algebraic"  # no derivative term: pointwise formula
    TWO_SINGULARITY = "two_singularity"  # xi = c2/c1 in [0, 1)
    SERIES_SEEDED = "series_seeded"  # x = 1 is the only singular point
    UNIFORM_LIMIT = "uniform_limit"  # g -> 0: all degrees die out, G* = 1


@dataclass(frozen=True)
class SteadyCase:
    tag: SteadyCaseTag
    constants: SteadyConstants
    singular_points: tuple[float, ...]


@dataclass
class SteadyState:
    """Constructed stationary profile.

    Holds what a construction decides: the case, the slope at 1 when the
    construction pins it (None otherwise), a note and the evaluator.
    ``value_at_one``, ``value_at_ratio`` and ``certified`` derive from them.
    """

    case: SteadyCase
    slope_at_one: float | None
    note: str
    _eval: Callable[[np.ndarray], np.ndarray]

    @property
    def value_at_one(self) -> float:
        return self(1.0)

    @property
    def value_at_ratio(self) -> float | None:
        """G* at the interior singular point xi = c2/c1 of a two-singularity profile, else None."""
        if self.case.tag is not SteadyCaseTag.TWO_SINGULARITY:
            return None
        return self(self.case.singular_points[0])

    @property
    def certified(self) -> bool:
        """The slope at 1 is pinned and nonzero, and the profile meets its equation.

        The equation is checked by ``residual`` on 201 evenly spaced points
        of [-1, 1], leaving out those within ``_EXCLUDE`` of a singular
        point; every |residual| must be at most ``_CERT_TOL``.
        """
        if self.slope_at_one is None or abs(self.slope_at_one) <= _ZTOL:
            return False
        xs = np.linspace(-1.0, 1.0, 201)
        xs = xs[_away_from_singular(self.case, xs)]
        return bool(np.max(np.abs(residual(self, self.case.constants, xs))) <= _CERT_TOL)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xv = np.atleast_1d(x)
        bad = ~((xv >= _X_LOW) & (xv <= 1.0 + _ONE_TIE))
        if np.any(bad):
            raise ValidationError(f"x = {float(xv[bad][0])!r} lies outside the profile domain [{_X_LOW}, 1]")
        out = self._eval(xv)
        return float(out[0]) if x.ndim == 0 else out

    def derivative(self, x):
        """dG*/dx by differencing the profile.

        Each point first picks its stencil: central, or second-order
        one-sided within 2 steps of x = 1 or of an interior singular point
        (on the point's own side) and within one step of the lower domain
        end.  The profile is then evaluated once on all stencil nodes, none
        of which leaves the domain or crosses a singular point.
        """
        x = np.asarray(x, dtype=float)
        xv = np.atleast_1d(x)
        side = np.zeros_like(xv)  # 0: central, +1: forward, -1: backward
        side[xv - _STEP < _X_LOW] = 1.0
        side[xv > 1.0 - 2.0 * _STEP] = -1.0
        for s in self.case.singular_points:
            if abs(s) < 1.0:
                near = np.abs(xv - s) < 2.0 * _STEP
                side[near] = np.where(xv[near] >= s, 1.0, -1.0)
        one = side != 0.0
        xc, xo, h = xv[~one], xv[one], side[one] * _STEP
        f = self(np.concatenate([xc + _STEP, xc - _STEP, xo, xo + h, xo + 2.0 * h]))
        fp, fm, f0, f1, f2 = np.split(f, np.cumsum([xc.size, xc.size, xo.size, xo.size]))
        out = np.empty_like(xv)
        out[~one] = (fp - fm) / (2.0 * _STEP)
        out[one] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        return float(out[0]) if x.ndim == 0 else out


def explicit_constants(c1: float, c2: float, c3: float, c4: float, m: int) -> SteadyConstants:
    """Wrap user-supplied stationary-equation constants.

    The implied equilibrium first moment (c3 + c4 m)/(c4 + c2 - c1) is
    attached when that quotient is defined and positive; otherwise g_inf is
    NaN (the constants are still usable for classification/construction).
    """
    for name, v in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4)):
        if not math.isfinite(v) or v < 0.0:
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValidationError(f"m must be a nonnegative integer, got {m!r}")
    denom = c4 + c2 - c1
    g_inf = (c3 + c4 * m) / denom if denom > _ZTOL else math.nan
    if not (g_inf > 0.0):
        g_inf = math.nan
    return SteadyConstants(
        g_inf=g_inf, degeneracy=Degeneracy.REGULAR, c1=c1, c2=c2, c3=c3, c4=c4, m=int(m)
    )


def _unpack(constants: SteadyConstants) -> tuple[float, float, float, float, int]:
    if constants.degeneracy is not Degeneracy.REGULAR or constants.c1 is None:
        raise ValidationError("stationary constants are only defined for a regular first moment")
    return constants.c1, constants.c2, constants.c3, constants.c4, constants.m


def _near_zero(v: float, scale: float = 1.0) -> bool:
    return abs(v) <= _ZTOL * max(1.0, scale)


def classify(constants: SteadyConstants) -> SteadyCase:
    """Assign the stationary equation to its structural case.

    Vanishing and coinciding constants are decided with a 1e-12 tie
    tolerance.  The singular points list the roots of the derivative
    prefactor that fall inside [-1, 1].
    """
    c1, c2, c3, c4, _ = _unpack(constants)
    scale = max(c1, c2, c3, c4)

    def z(v):
        return _near_zero(v, scale)

    sing: tuple[float, ...]
    if z(c1) and z(c2):
        sing = ()
    else:
        sing = (1.0,)
        if not z(c1):
            xi = c2 / c1
            if xi <= 1.0 - _ZTOL:
                sing = (xi, 1.0)
    if z(c1) and z(c2) and z(c3) and z(c4):
        return SteadyCase(SteadyCaseTag.ALL_ZERO, constants, ())
    if z(c3) and z(c4):
        return SteadyCase(SteadyCaseTag.CONSTANTS_ONLY, constants, sing)
    if z(c4):  # c3 > 0
        if z(c1) and z(c2):
            return SteadyCase(SteadyCaseTag.ZERO_ONLY, constants, sing)
        if c1 < c2 - _ZTOL * max(1.0, scale):
            return SteadyCase(SteadyCaseTag.FAMILY, constants, sing)
        return SteadyCase(SteadyCaseTag.ZERO_ONLY, constants, sing)
    # c4 > 0
    if z(c1) and z(c2):
        return SteadyCase(SteadyCaseTag.ALGEBRAIC, constants, sing)
    if not z(c1) and c2 < c1 - _ZTOL * max(1.0, scale):
        return SteadyCase(SteadyCaseTag.TWO_SINGULARITY, constants, sing)
    return SteadyCase(SteadyCaseTag.SERIES_SEEDED, constants, sing)


# -- constructions ----------------------------------------------------------


def _constant_state(case: SteadyCase, value: float, note: str) -> SteadyState:
    return SteadyState(
        case=case,
        slope_at_one=0.0,
        note=note,
        _eval=lambda x, v=value: np.full_like(np.asarray(x, dtype=float), v),
    )


def _analytic_a1(c1, c2, c3, c4, m) -> float | None:
    """Slope at x = 1 of the analytic solution branch, None when resonant."""
    d1 = c4 + c2 - c1
    if abs(d1) <= _ZTOL * max(1.0, c1, c2, c4):
        return None
    return (c3 + c4 * m) / d1


def _regular_slope(c1, c2, c3, c4, m):
    """First two derivatives of the analytic solution branch at x = 1.

    Returns (a1, a2) of G* = 1 + a1 (x-1) + a2 (x-1)^2 + ..., or None when
    the defining denominators vanish (resonant indicial roots).
    """
    a1 = _analytic_a1(c1, c2, c3, c4, m)
    d2 = c4 + 2.0 * (c2 - c1)
    if a1 is None or abs(d2) <= _ZTOL * max(1.0, c1, c2, c4):
        return None
    a2 = ((c1 + c3) * a1 + c4 * m * (m - 1) / 2.0) / d2
    return a1, a2


def _kernel_profile(side: float, xi: float, alpha: float, beta: float, m: int, pref: float):
    """Two-singularity profile on one side of xi, integrated outward from xi.

    In u = |s - xi|^(-beta) the kernel s^m (1-s)^(-alpha-1) |s - xi|^(-beta-1) ds
    becomes the bounded nu s^m (1-s)^(-alpha-1) du, nu = -1/beta, and
    G*(x) = pref (1-x)^alpha I(x) / u(x) with I the integral from u = 0.
    A fixed mesh in u, graded geometrically toward u = 0 and (right of xi)
    toward s = 1, carries a 20-node Gauss-Legendre rule per panel; the
    10-node rule on the same panels estimates its error.  One prefix scan
    over the full panels gives G* at every mesh node, and each query adds
    one partial panel to the node below it.  The scan carries G* itself
    rather than I, whose range overflows doubles once alpha or -beta pass
    about 30.  The mesh does not depend on the queries, so a point gets the
    same value alone as in a batch.
    """
    nb, nu = -beta, -1.0 / beta
    # Toward u = 0 each level halves u, and also |s - xi| where u is the
    # flatter of the two.  Toward s = 1 each panel at least halves 1 - s, and
    # (1-s)^(-alpha-1) grows at most 16-fold across it.
    d_end = xi - _X_LOW if side < 0.0 else (1.0 - xi) - _ONE_TIE
    nodes = [[0.0], np.geomspace(d_end, _XI_TIE, math.ceil(math.log2(d_end / _XI_TIE) / min(1.0, nu)) + 1)]
    if side > 0.0:
        panels = math.ceil(math.log2((1.0 - xi) / _ONE_TIE) * max(1.0, (alpha + 1.0) / 4.0))
        nodes.append((1.0 - xi) - np.geomspace(1.0 - xi, _ONE_TIE, panels + 1)[1:])
    d = np.unique(np.concatenate(nodes))  # offsets |s - xi| of the mesh nodes
    e = (1.0 - xi) - side * d  # 1 - s there
    rules = [np.polynomial.legendre.leggauss(n) for n in (20, 10)]  # value rule, estimate rule

    def step(dq, eq, k):
        """Carry factor from node k-1 to offset dq, where 1 - s = eq, and the
        partial panel's share of G* with its error estimate.  log1p/expm1
        place the nodes so that 1 - s stays exact near s = 1."""
        r = (d[k - 1] / dq) ** nb  # u at node k-1 over u at dq
        parts = []
        for t, w in rules:
            log_rho = np.log1p(np.multiply.outer(r - 1.0, 0.5 * (1.0 - t)))
            en = eq[:, None] - side * dq[:, None] * np.expm1(nu * log_rho)
            f = nu * (xi + side * dq[:, None] * np.exp(nu * log_rho)) ** m * (eq[:, None] / en) ** alpha / en
            parts.append(pref * (1.0 - r) * 0.5 * (f * w).sum(axis=1))
        return (eq / e[k - 1]) ** alpha * r, parts[0], np.abs(parts[0] - parts[1])

    carry, part, est = (a.tolist() for a in step(d[1:], e[1:], np.arange(1, d.size)))
    value, error = (np.array(list(accumulate(zip(carry, a), lambda g, ca: ca[0] * g + ca[1], initial=0.0)))
                    for a in (part, est))

    def profile(x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(d, np.abs(x - xi))
        carry, part, est = step(np.abs(x - xi), 1.0 - x, k)
        val, err = carry * value[k - 1] + part, carry * error[k - 1] + est
        bad = ~(err <= _QUAD_TOL * np.maximum(1.0, np.abs(val)))
        if np.any(bad):
            raise IntegrationError(
                f"two-singularity quadrature error estimate {float(err[bad][0])!r} at x = {float(x[bad][0])!r}"
            )
        return val

    return profile


def _two_singularity(case: SteadyCase, anchor: float | None) -> SteadyState:
    """Stationary profile when both x = 1 and xi = c2/c1 lie in [-1, 1].

    The solution is an integral against the homogeneous weight
    (1-x)^alpha (x-xi)^beta with alpha = c4/(c1-c2) > 0 and
    beta = -c3/c1 - alpha < 0; its value at xi is fixed by continuity to
    c4 xi^m / (c4 + (1-xi) c3).  Both segments integrate outward from xi
    (``_kernel_profile``).  ``anchor`` picks the reference point y of the
    right-segment variation-of-constants form, integrated from y by adaptive
    quadrature instead; any y in (xi, 1) yields the same profile, and
    passing it explicitly exercises that cancellation.

    Precision limit near x = 1: the offsets 1 - s of the quadrature nodes
    are formed from offsets |s - xi| of order one, so they carry rounding
    of order eps |x - xi|, which the kernel amplifies by about
    alpha / (1 - x).  On the constants (2, 1, 1, 2, m = 3), against a
    40-digit mpmath quadrature, the error is 5e-12 at 1 - x = 1e-6, 5e-10
    at 1e-8, 3e-9 at 1e-9, 1e-7 at 1e-10 and 5e-7 at 3e-12; below 1e-9 it
    is rounding noise that varies from point to point (9e-9 at 1e-11).
    Points within 1e-12 of 1 take the value 1 exactly.
    """
    c1, c2, c3, c4, m = _unpack(case.constants)
    xi = c2 / c1
    alpha = c4 / (c1 - c2)
    beta = -c3 / c1 - alpha
    g_xi = c4 * xi**m / (c4 + (1.0 - xi) * c3)
    if anchor is not None and not (xi < anchor < 1.0):
        raise ValidationError(f"anchor must lie in (xi, 1) = ({xi!r}, 1), got {anchor!r}")

    pref = c4 / c1
    left = _kernel_profile(-1.0, xi, alpha, beta, m, pref)
    right = _kernel_profile(1.0, xi, alpha, beta, m, pref)
    if anchor is not None:
        w_y = (1.0 - anchor) ** alpha * (anchor - xi) ** beta
        g_y = float(right(np.array([anchor]))[0])
        kern = lambda s: s**m * (1.0 - s) ** (-alpha - 1.0) * (s - xi) ** (-beta - 1.0)  # noqa: E731

        def right(x: np.ndarray) -> np.ndarray:
            # variation of constants anchored at y = anchor; no reference back to xi
            j = np.array([quad(kern, anchor, xv, epsabs=1e-14, epsrel=1e-12, limit=300)[0] for xv in x])
            return (1.0 - x) ** alpha * (x - xi) ** beta / w_y * (g_y + pref * w_y * j)

    def evaluate(x: np.ndarray) -> np.ndarray:
        at_one = np.abs(x - 1.0) <= _ONE_TIE
        out = np.where(at_one, 1.0, g_xi)
        lo, hi = x - xi < -_XI_TIE, (x - xi > _XI_TIE) & ~at_one
        out[lo], out[hi] = left(x[lo]), right(x[hi])
        return out

    a1 = _analytic_a1(c1, c2, c3, c4, m)
    # The singular branch (1-x)^alpha dominates the slope unless alpha > 1.
    slope = a1 if a1 is not None and alpha > 1.0 + 1e-12 else None
    return SteadyState(
        case=case,
        slope_at_one=slope,
        note=f"two-singularity integral construction, xi = {xi!r}, alpha = {alpha!r}, beta = {beta!r}",
        _eval=evaluate,
    )


def _series_seeded(case: SteadyCase) -> SteadyState:
    """Stationary profile when x = 1 is the only singular point in [-1, 1].

    Seeds the analytic branch at x = 1 - _SEED_EPS with its quadratic
    expansion and integrates the explicit ODE backward to _X_LOW.  Backward
    integration is stable here: the homogeneous modes decay away from 1.
    When c1 = c2, c1 x - c2 = c1 (x - 1) makes x = 1 a double root, an
    irregular singular point where the equation is stiff, so LSODA
    integrates it; an explicit DOP853 needs about a million rhs evaluations.
    """
    c1, c2, c3, c4, m = _unpack(case.constants)
    seed = _regular_slope(c1, c2, c3, c4, m)
    if seed is None:
        raise DegenerateSeedError(
            f"series seed undefined: resonant denominators for constants {case.constants!r}"
        )
    a1, a2 = seed

    def rhs(x, y):
        num = (c4 - (x - 1.0) * c3) * y[0] - c4 * x**m
        return [num / ((x - 1.0) * (c1 * x - c2))]

    x_seed = 1.0 - _SEED_EPS
    g_seed = 1.0 - a1 * _SEED_EPS + a2 * _SEED_EPS * _SEED_EPS
    sol = solve_ivp(
        rhs,
        (x_seed, _X_LOW),
        [g_seed],
        method="LSODA" if _near_zero(c1 - c2, max(c1, c2)) else "DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    if sol.status != 0:
        raise IntegrationError(f"series-seeded integration failed: {sol.message}")
    dense = sol.sol

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        near = x >= x_seed
        u = x[near] - 1.0
        out[near] = 1.0 + a1 * u + a2 * u * u
        far = ~near
        if np.any(far):
            out[far] = dense(x[far])[0]
        return out

    return SteadyState(
        case=case,
        slope_at_one=a1,
        note=f"series-seeded backward integration from x = 1 - {_SEED_EPS!r}",
        _eval=evaluate,
    )


def construct(constants: SteadyConstants, anchor: float | None = None) -> SteadyState:
    """Build the stationary profile for the classified case.

    Cases without a unique normalized solution return flagged
    representatives: the unit constant for ALL_ZERO / CONSTANTS_ONLY, the
    zero function for ZERO_ONLY.  ``anchor`` moves the reference point of
    the two-singularity construction into (xi, 1); a second anchor gives an
    independent build of the same profile to check the default against.
    """
    case = classify(constants)
    c1, c2, c3, c4, m = _unpack(constants)
    tag = case.tag
    if tag is SteadyCaseTag.ALL_ZERO:
        return _constant_state(case, 1.0, "all constants vanish: every profile is stationary; unit representative")
    if tag is SteadyCaseTag.CONSTANTS_ONLY:
        return _constant_state(case, 1.0, "only constant profiles are stationary; unit representative")
    if tag is SteadyCaseTag.ZERO_ONLY:
        return _constant_state(case, 0.0, "the zero function is the only stationary profile")
    if tag is SteadyCaseTag.FAMILY:
        if c1 > _ZTOL * max(1.0, c2):
            expo = c3 / c1

            def evaluate(x, c1=c1, c2=c2, expo=expo):
                return ((c2 - c1) / (c2 - c1 * x)) ** expo

            slope = c3 / (c2 - c1)
        else:

            def evaluate(x, rate=c3 / c2):
                return np.exp(rate * (x - 1.0))

            slope = c3 / c2
        return SteadyState(
            case=case,
            slope_at_one=slope,
            note="one-parameter family; unit-normalized representative in closed form",
            _eval=evaluate,
        )
    if tag is SteadyCaseTag.ALGEBRAIC:

        def evaluate(x, c3=c3, c4=c4, m=m):
            return c4 * np.asarray(x, dtype=float) ** m / (c4 - (np.asarray(x, dtype=float) - 1.0) * c3)

        return SteadyState(
            case=case,
            slope_at_one=m + c3 / c4,
            note="no derivative term: pointwise algebraic solution",
            _eval=evaluate,
        )
    if tag is SteadyCaseTag.TWO_SINGULARITY:
        return _two_singularity(case, anchor)
    return _series_seeded(case)


def steady_from_rates(rates: ProcessRates) -> SteadyState:
    """Stationary profile implied by the process rates.

    Raises NoSteadyStateError when the first moment diverges; returns the
    unit profile when the first moment decays to zero.
    """
    constants = steady_constants(rates)
    if constants.degeneracy is Degeneracy.DIVERGENT:
        raise NoSteadyStateError(
            "the first moment grows without bound; no stationary distribution exists"
        )
    if constants.degeneracy is Degeneracy.UNIFORM:
        case = SteadyCase(SteadyCaseTag.UNIFORM_LIMIT, constants, ())
        return _constant_state(case, 1.0, "first moment decays to zero: all degrees die out, G* = 1")
    return construct(constants)


def _away_from_singular(case: SteadyCase, x: np.ndarray) -> np.ndarray:
    """Mask of the points of x farther than ``_EXCLUDE`` from every singular point."""
    ok = np.ones(x.shape, dtype=bool)
    for s in case.singular_points:
        ok &= np.abs(x - s) > _EXCLUDE
    return ok


def residual(state: SteadyState, constants: SteadyConstants, x):
    """Pointwise defect of the stationary ODE, with the slope from ``state.derivative``.

    x must lie in the profile domain.  The derivative's stencil stays on the
    point's own side of every singular point; the defect is meaningful only
    at points some distance away from them (see ``_away_from_singular``).
    """
    c1, c2, c3, c4, m = _unpack(constants)
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x)
    val, slope = state(xs), state.derivative(xs)
    res = (xs - 1.0) * (c1 * xs - c2) * slope + ((xs - 1.0) * c3 - c4) * val + c4 * xs**m
    return float(res[0]) if x.ndim == 0 else res
