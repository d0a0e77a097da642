"""Stationary generating functions of the evolving-network PDE.

Stationary profiles G*(x) solve the linear first-order ODE

    0 = (x-1)(c1 x - c2) G*'(x) + ((x-1) c3 - c4) G*(x) + c4 x^m

whose coefficient constants derive from the rates and the equilibrium first
moment.  The equation is singular at x = 1 and (when c1 > 0) at xi = c2/c1,
and the structure of its solution set depends on which constants vanish:
constants-only cases, a one-parameter family with closed form, a purely
algebraic solution, and, for c4 > 0 with a singular point, one construction:
Duhamel's integral along the equation's closed-form backward
characteristics, the PDE's own long-time limit.  It serves both the
two-singularity case, xi in [0, 1), and the case where x = 1 is the only
singular point in [-1, 1].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp  # perfbench's tracer wraps both by module attribute

from .characteristics import _gauss
from .errors import IntegrationError, NoSteadyStateError, ValidationError
from .model import Degeneracy, ProcessRates, SteadyConstants, count, real, real_or_array, steady_constants

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
_QUAD_TOL = 1e-10  # bound on the profile's error estimate, relative to max(1, |G*|)
_THETA = 1.0  # a panel's width times each rate it resolves is at most this
_PANELS = 50_000  # most panels one characteristic may take
# No construction calls solve_ivp; the name stays because a traced run looks it up here.
_TRACED = (quad, solve_ivp)


class SteadyCaseTag(enum.Enum):
    ALL_ZERO = "all_zero"  # every continuous function is stationary
    CONSTANTS_ONLY = "constants_only"  # exactly the constant functions
    ZERO_ONLY = "zero_only"  # the zero function is the only solution
    FAMILY = "family"  # one-parameter family, closed form
    ALGEBRAIC = "algebraic"  # no derivative term: pointwise formula
    TWO_SINGULARITY = "two_singularity"  # xi = c2/c1 in [0, 1)
    SERIES_SEEDED = "series_seeded"  # x = 1 is the only singular point; reports and the CLI print this name
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
        x = real_or_array(x, "x")
        xv = np.atleast_1d(x)
        bad = ~((xv >= _X_LOW) & (xv <= 1.0 + _ONE_TIE))
        if np.any(bad):
            raise ValidationError(f"x = {float(xv[bad][0])!r} lies outside the profile domain [{_X_LOW}, 1]")
        out = self._eval(xv)
        return float(out[0]) if isinstance(x, float) else out

    def derivative(self, x):
        """dG*/dx by differencing the profile.

        Each point first picks its stencil: central, or second-order
        one-sided within 2 steps of x = 1 or of an interior singular point
        (on the point's own side) and within one step of the lower domain
        end.  The profile is then evaluated once on all stencil nodes, none
        of which leaves the domain or crosses a singular point.
        """
        x = real_or_array(x, "x")
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
        return float(out[0]) if isinstance(x, float) else out


def explicit_constants(c1: float, c2: float, c3: float, c4: float, m: int) -> SteadyConstants:
    """Wrap user-supplied stationary-equation constants.

    The implied equilibrium first moment (c3 + c4 m)/(c4 + c2 - c1) is
    attached when that quotient is defined and positive; otherwise g_inf is
    NaN (the constants are still usable for classification/construction).
    Each constant must be a finite real number >= 0 (``model.real``) and m
    an integer >= 0 (``model.count``); anything else raises ValidationError.
    """
    c1, c2, c3, c4 = (real(name, v, 0.0) for name, v in zip(("c1", "c2", "c3", "c4"), (c1, c2, c3, c4)))
    m = count("m", m, 0)
    denom = c4 + c2 - c1
    g_inf = (c3 + c4 * m) / denom if denom > _ZTOL else math.nan
    if not (g_inf > 0.0):
        g_inf = math.nan
    return SteadyConstants(
        g_inf=g_inf, degeneracy=Degeneracy.REGULAR, c1=c1, c2=c2, c3=c3, c4=c4, m=m
    )


def _unpack(constants: SteadyConstants) -> tuple[float, float, float, float, int]:
    if constants.degeneracy is not Degeneracy.REGULAR or constants.c1 is None:
        raise ValidationError("stationary constants are only defined for a regular first moment")
    return constants.c1, constants.c2, constants.c3, constants.c4, constants.m


def classify(constants: SteadyConstants) -> SteadyCase:
    """Assign the stationary equation to its structural case.

    Vanishing and coinciding constants are decided with a 1e-12 tie
    tolerance.  The singular points list the roots of the derivative
    prefactor that fall inside [-1, 1].
    """
    c1, c2, c3, c4, _ = _unpack(constants)
    scale = max(c1, c2, c3, c4)

    def z(v):
        return abs(v) <= _ZTOL * max(1.0, scale)

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


def _blocked(f, x: np.ndarray) -> np.ndarray:
    """f over the points x in blocks of 512, along f's last axis.

    The blocks bound the (n, nodes) arrays of f, the peak memory of a long
    table; f computes each point alone, so the blocks change no value.
    """
    return np.concatenate([f(x[i : i + 512]) for i in range(0, max(x.size, 1), 512)], axis=-1)


@functools.cache
def _rules():
    """Nodes (31,) on [0, 1] of the 20-node and the 10-node Gauss rule and of the panel end, both rules'
    weights, and the 20-node rule's tail matrix int_{t_j}^1 l_i and barycentric weights.

    Built on first use, like ``characteristics._rules``.
    """
    t, b, ahat = _gauss(20)
    x10, w10 = np.polynomial.legendre.leggauss(10)
    lam = (-1.0) ** np.arange(20) * np.sqrt(t * (1.0 - t) * b)
    return np.concatenate([t, (x10 + 1.0) / 2.0, [1.0]]), b, w10 / 2.0, b - ahat, lam


def _characteristic(c1, kappa, c3, c4, m, w0, w_att, f_att, w_q):
    """G*(1 + w) on one backward characteristic, from w = w0 past w_q toward its attractor w_att.

    Offsets w = X - 1 follow the backward flow in closed form, so G* is one
    smooth function of the backward time r along it; f_att is G* at the
    attractor, and the panels carry G* - f_att.  The panels tile r up to
    r_end, 20 / (c4 + |kappa|) past w_q.  Every panel keeps the offset's rates
    2 |kappa| + 2 c1 |X - 1| below ``_THETA`` per panel, which bounds G*'s own
    change.  A narrow panel also keeps the weight's rates c4 and c3 |X - 1|
    and X^m's m per unit of X below it, and its node values come from its
    integration matrix and the value at the panel after it, scanned from the
    attractor end.  Where the weight decays 400 times faster than the offset
    changes, a wide panel takes each node value from its own window: the
    integral over 5 sub-panels of 8 / (c4 + c3 |X - 1|), whose remainder is
    below e^-36.  The 10-node rule on the same panels estimates the error.
    A query reads its panel's barycentric interpolant at its closed-form r
    from the panel's start; the panels never depend on the queries, so a
    point gets the same value alone as in a batch.
    """
    nodes, b, b10, tail, lam = _rules()

    def phi(r):  # (e^{kappa r} - 1) / kappa
        return r if kappa == 0.0 else np.expm1(kappa * r) / kappa

    def phi_inv(p):
        return p if kappa == 0.0 else np.log1p(kappa * p) / kappa

    def flow(w, s):
        """Offset after backward time s from offset w, and the log of the weight exp int (c3 (X - 1) - c4)."""
        p = -c1 * w * phi(s)
        return w * np.exp(kappa * s) / (1.0 + p), c3 * (w * phi(s) if c1 == 0.0 else -np.log1p(p) / c1) - c4 * s

    def time(wa, wb):  # backward time from offset wa to offset wb
        return phi_inv((wb - wa) / (wa * (c1 * wb + kappa)))

    def ell(r):  # -int (X - 1) over backward time r from w0
        return -w0 * phi(r) if c1 == 0.0 else np.log1p(-c1 * w0 * phi(r)) / c1

    def mesh(ra, rb, rates):
        """Edges of [ra, rb], at most _THETA / rate apart in r, in ell and in X for the three rates."""
        wa, wb = flow(w0, np.array([ra, rb]))[0]
        spans = ((ra, rb), (ell(ra), ell(rb)), (min(wa, wb), max(wa, wb)))
        if sum((hi - lo) * rate for (lo, hi), rate in zip(spans, rates)) > _PANELS * _THETA:
            raise IntegrationError(f"stationary profile needs more than {_PANELS} panels")
        inverse = (lambda r: r, lambda l: phi_inv(-l / w0 if c1 == 0.0 else np.expm1(c1 * l) / (-c1 * w0)),
                   lambda w: time(w0, w))
        e = np.unique(np.concatenate([[ra, rb]] + [f(np.arange(lo, hi, _THETA / rate)[1:])
                                                   for (lo, hi), rate, f in zip(spans, rates, inverse) if rate > 0.0]))
        return e[(e >= ra) & (e <= rb)]

    def source(w):  # c4 X^m - f_att (c4 - c3 (X - 1)): integrated against the weight, it gives G* - f_att
        return c4 * ((1.0 + w) ** m - f_att) + c3 * f_att * w

    def check(est, d):
        bad = ~(est <= _QUAD_TOL * np.maximum(1.0, np.abs(f_att + d)))
        if np.any(bad):
            raise IntegrationError(f"stationary profile error estimate {float(est[bad][0])!r} "
                                   f"at G* = {float(f_att + d[bad][0])!r}")

    sw = (np.arange(5.0)[:, None] + nodes[:30]).ravel()  # a window's nodes, in sub-panels
    bw = [np.tile(np.concatenate(r), 5) for r in ((b, 0.0 * b10), (0.0 * b, b10))]

    def window(w):
        """G* - f_att at offsets w and its estimate, each the integral over 5 sub-panels of 8 / (c4 + c3 |X - 1|)."""
        hw = 8.0 / (c4 - c3 * w[:, None])
        wn, g = flow(w[:, None], hw * sw)
        q = source(wn) * np.exp(g) * hw
        out = np.array([q @ bw[0], np.abs(q @ (bw[0] - bw[1]))])
        check(out[1], out[0])
        return out

    def wide(ra, rb):  # node values from their windows
        e = mesh(ra, rb, (2.0 * abs(kappa), 2.0 * c1, 0.0))
        wk, h = flow(w0, e[:-1])[0], np.diff(e)
        return wk, h, _blocked(window, flow(wk[:, None], h[:, None] * nodes[:20])[0].ravel())[0].reshape(-1, 20)

    def narrow(ra, rb):  # node values scanned from the value at rb: 0 at r_end, else its window
        e = mesh(ra, rb, (2.0 * abs(kappa) + c4, 2.0 * c1 + c3, m))
        wk, h = flow(w0, e[:-1])[0], np.diff(e)
        w, g = flow(wk[:, None], h[:, None] * nodes)
        q, ex = source(w) * np.exp(g), np.exp(g[:, 30])
        i20, i10 = h * (q[:, :20] @ b), h * (q[:, 20:30] @ b10)

        def scan(a, end):  # a_k + ex_k (a_{k+1} + ex_{k+1} (... + end)) at every panel start k
            return np.array(list(accumulate(zip(ex[::-1].tolist(), a[::-1].tolist()),
                                            lambda f, ea: ea[0] * f + ea[1], initial=end)))[::-1]

        end, end_est = window(flow(w0, np.array([rb]))[0])[:, 0].tolist() if rb < r_end else (0.0, 0.0)
        start, err = scan(i20, end), scan(np.abs(i20 - i10), end_est)
        check(err, start)
        tails = np.einsum("pi,ji->pj", q[:, :20], tail)  # not a BLAS gemm: threaded, it is slow at this size
        return wk, h, np.exp(-g[:, :20]) * (h[:, None] * tails + (ex * start[1:])[:, None])

    # Wide panels serve where 400 (|kappa| + c1 |X - 1|) <= c4 + c3 |X - 1|.
    # That is linear in |X - 1|, which moves monotonically, so it holds on a
    # prefix or a suffix of the characteristic.
    r_end = time(w0, w_q) + 20.0 / (c4 + abs(kappa))  # the terminal value's error is damped by e^-20 at w_q
    first = 400.0 * (abs(kappa) - c1 * w0) <= c4 - c3 * w0
    r_s = (r_end if first == (400.0 * (abs(kappa) - c1 * w_att) <= c4 - c3 * w_att)
           else min(time(w0, (400.0 * abs(kappa) - c4) / (400.0 * c1 - c3)), r_end))
    parts = [(wide if is_wide else narrow)(ra, rb) for ra, rb, is_wide in ((0.0, r_s, first), (r_s, r_end, not first))
             if rb > ra]
    wk, h, vals = (np.concatenate(a) for a in zip(*parts))
    sign = 1.0 if w_att > w0 else -1.0

    def block(w: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(sign * wk, sign * w, side="right") - 1, 0, wk.size - 1)
        d = (time(wk[k], w) / h[k])[:, None] - nodes[:20]
        c = lam / np.where(d == 0.0, 1e-300, d)
        return f_att + (c * vals[k]).sum(1) / c.sum(1)

    return lambda w: _blocked(block, w)


def _stationary(case: SteadyCase, anchor: float | None) -> SteadyState:
    """Stationary profile for c4 > 0 with a singular point: Duhamel's integral along the backward characteristics.

    G*(x) = int_0^inf c4 X(r)^m exp(int_0^r (c3 (X - 1) - c4)) dr along
    X' = (X - 1)(c1 X - c2), X(0) = x.  With kappa = c1 - c2 and v = 1/(X - 1)
    the flow is linear, v' = -c1 - kappa v, so X and int (X - 1) are closed
    form; the flow is trapped in [-1, 1] and tends to xi = c2/c1 when xi < 1
    (the two-singularity case), else to 1.  G* there is c4 xi^m / (c4 + (1 -
    xi) c3), and 1 at x = 1.  Every x below the attractor lies on the one
    characteristic from the domain end, and every x between xi and 1 on the
    one from 1 - 1e-12 (``_characteristic``).  Points from 1 - 1e-12 to the
    domain's end take the value 1 exactly, and points within 1e-9 of xi the
    value at xi.

    ``anchor`` picks the reference point y of the right-segment
    variation-of-constants form, integrated from y by adaptive quadrature
    instead; any y in (xi, 1) yields the same profile, and passing it
    explicitly exercises that cancellation.
    """
    c1, c2, c3, c4, m = _unpack(case.constants)
    two = case.tag is SteadyCaseTag.TWO_SINGULARITY
    # x = 1 attracts when c2 >= c1 up to the tie tolerance: the flow takes c2 = c1 there
    xi, kappa = (c2 / c1, c1 - c2) if two else (1.0, min(c1 - c2, 0.0))
    g_xi = c4 * xi**m / (c4 + (1.0 - xi) * c3)
    tie = _XI_TIE if two else _ONE_TIE
    left = _characteristic(c1, kappa, c3, c4, m, _X_LOW - 1.0, xi - 1.0, g_xi, xi - 1.0 - tie)
    # x between xi and 1 lies on the characteristic from 1 - 1e-12; no point does in
    # the series-seeded case, or when the ties around xi and 1 overlap
    right = (_characteristic(c1, kappa, c3, c4, m, -_ONE_TIE, xi - 1.0, g_xi, xi - 1.0 + tie)
             if xi + tie < 1.0 - _ONE_TIE else left)
    alpha = c4 / kappa if two else math.inf
    beta = -c3 / c1 - alpha if two else None
    if anchor is not None:
        anchor = real("anchor", anchor)
        if not xi < anchor < 1.0:
            raise ValidationError(f"anchor must lie in (xi, 1) = ({xi!r}, 1), got {anchor!r}")
        w_y = (1.0 - anchor) ** alpha * (anchor - xi) ** beta
        g_y = float(right(np.array([anchor - 1.0]))[0])
        kern = lambda s: s**m * (1.0 - s) ** (-alpha - 1.0) * (s - xi) ** (-beta - 1.0)  # noqa: E731
        pref = c4 / c1

        def right(w: np.ndarray) -> np.ndarray:
            # variation of constants anchored at y = anchor; no reference back to xi
            x = 1.0 + w
            j = np.array([quad(kern, anchor, xv, epsabs=1e-14, epsrel=1e-12, limit=300)[0] for xv in x])
            return (1.0 - x) ** alpha * (x - xi) ** beta / w_y * (g_y + pref * w_y * j)

    def evaluate(x: np.ndarray) -> np.ndarray:
        at_one = x - 1.0 >= -_ONE_TIE  # up to the domain's end, whose 1 + 1e-12 rounds to 1 + 1.00009e-12
        out = np.where(at_one, 1.0, g_xi)
        lo, hi = x - xi < -tie, (x - xi > tie) & ~at_one
        out[lo], out[hi] = left(x[lo] - 1.0), right(x[hi] - 1.0)
        return out

    a1 = _analytic_a1(c1, c2, c3, c4, m)
    # The singular branch (1-x)^alpha dominates the slope unless alpha > 1.
    slope = a1 if a1 is not None and alpha > 1.0 + 1e-12 else None
    note = (f"Duhamel integral along the backward characteristics toward xi = {xi!r}, alpha = {alpha!r}, beta = {beta!r}"
            if two else "Duhamel integral along the backward characteristic toward x = 1")
    return SteadyState(case=case, slope_at_one=slope, note=note, _eval=evaluate)


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
    if anchor is not None and tag is not SteadyCaseTag.TWO_SINGULARITY:
        raise ValidationError(f"anchor applies only to the two_singularity case; these constants are {tag.value}")
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
    return _stationary(case, anchor)


def steady_from_rates(rates: ProcessRates) -> SteadyState:
    """Stationary profile implied by the process rates.

    Raises NoSteadyStateError when the first moment diverges or when the
    rates conserve it, since it then keeps its initial value; returns the
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
    x = real_or_array(x, "x")
    xs = np.atleast_1d(x)
    val, slope = state(xs), state.derivative(xs)
    res = (xs - 1.0) * (c1 * xs - c2) * slope + ((xs - 1.0) * c3 - c4) * val + c4 * xs**m
    return float(res[0]) if isinstance(x, float) else res
