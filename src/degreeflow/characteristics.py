"""Method-of-characteristics solver for the nonlocal generating-function PDE.

Along a characteristic curve the transport part of the PDE reduces to the
projected scalar ODE dx/dt = -(x-1)(A(t)x - B(t)) with

    A(t) = omega_p + (2 l_p + m n_p) / g(t),
    B(t) = l_d + omega_p + omega_r + n_d g(t),

where g is the closed-form first-moment trajectory.  Since x = 1 solves the
projected ODE exactly, the substitution v = 1/(x-1) makes it linear,
dv/dt = (A-B) v + A, so one scalar integration of the pair

    L' = A - B,  L(0) = 0        (log of the fundamental solution)
    psi' = (A-B) psi + A, psi(0) = 0   (particular solution)

captures the whole two-parameter flow in closed form:

    forward:  x(t) = 1 + 1/(e^{L(t)} v0 + psi(t)),   v0 = 1/(x0 - 1)
    backward: x0   = 1 + e^{L(tbar)} / (vbar - psi(tbar)), vbar = 1/(xbar - 1)

psi >= 0 and vbar <= -1/2 keep the denominator away from zero, which is the
algebraic form of the trapping property: backward characteristics started in
[-1, 1] never leave it.

The PDE is linear in G, so along a curve G = z obeys its own scalar linear
equation

    z' = ((x-1) C - c4) z + c4 x^m,

and p1 = G_x obeys its x-derivative, a second linear equation fed by z.  The
transport carries u = z - 1, whose source ((x-1) C - c4) + c4 x^m is exactly
0 at x = 1, so G(1, t) = 1 holds to the last bit.  Both data equations are
integrated along the exact x(t) path from the flow maps.  Substituting the
path (instead of integrating x jointly) matters: the raw x equation is
exponentially unstable forward in time near x = 1, and any x drift would
contaminate G through G_x.

Values are asked for at pairs (x_i, t_i): a single point, scattered points
or every pair (x_i, t_j) of a tensor grid.  They are transported in a single
forward pass: the curves through every pair start together from their
traced origins and are stepped together, segment by segment between the
distinct times.  Each curve is retired at its own time t_i and never
integrated past it, because a forward path may leave [-1, 1] after its
time, where the denominator e^L + psi w0 can reach zero.

Every equation of the march is linear with coefficients known in closed
form: (L, psi) above, and y' = a y + f for each data row.  A step [s, s+h]
therefore needs the coefficients at fixed nodes only, and no stage solve:
the exponential quadrature of Hochbruck and Ostermann (Exponential
integrators, Acta Numerica 19, 2010) on Gauss-Legendre nodes (Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.7).  g, the coefficients and
the curve positions x - 1 = w0 / (e^L + psi w0) are evaluated once per step
on the nodes of an 8-node and a 6-node rule together.  With I = h Ahat a
the integral of a up to each node (Ahat_kj = int_0^{c_k} l_j), a row's node
values are y_k = e^{I_k} (y + h sum_j Ahat_kj e^{-I_j} f_j), and its end
value takes the rule's weights in place of a row of Ahat.  The 8-node
result is kept; its difference from the 6-node result controls the step.
The origin offsets w0 = e^{L(t_i)} / (vbar - psi(t_i)) come from the
backward map as computed, never as x0 - 1, which rounds to 0 once e^L is
below machine epsilon.  The dense (L, psi) integration (DOP853) serves only
the backward trace, and is independent of the march's own (L, psi).

The solver's inputs are the rates, the initial condition h and the query
points.  g is built from h'(1), so it is always the field's own G_x(1, t).
The trace checks what can fail in floating point: an origin more than
1e-6 below x = -1 raises AccuracyError, an origin offset below the
normal double range raises DomainError, and a dense flow whose arithmetic
overflows raises IntegrationError: A = wsum / g is about 1e150 when g(0)
is about 1e-150.  A forward roundtrip of an offset
through the same (e^L, psi) would give back xbar - 1 by algebra and measure
only rounding, so there is none; the flow's accuracy is verified in the
tests, against independent forward integrations.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from .errors import AccuracyError, DomainError, IntegrationError, ValidationError
from .initial import InitialCondition
from .model import ProcessRates, coefficients, derive_riccati
from .riccati import ClosedFormMoment

__all__ = [
    "RTOL",
    "ATOL",
    "SolutionField",
    "CharacteristicSolver",
    "solve_grid",
]

# Pinned tolerances of the march and of the dense DOP853 flow behind the trace
RTOL = 1e-9
ATOL = 1e-12
_CLAMP = 1e-6  # largest tolerated excursion of a traced origin below x = -1
_TINY = np.finfo(float).tiny  # smallest normal double: the least origin offset kept at full precision
_DIFF_RTOL = 1e-10  # relative tolerance of the deviation transport


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes c, weights b and integration matrix Ahat_kj = int_0^{c_k} l_j of the n-node Gauss rule on [0, 1].

    l_j is the Lagrange polynomial of node j.  It is built in the Legendre
    basis, whose coefficients the rule itself gives exactly, so no
    Vandermonde matrix is inverted; int_{-1}^x P_p = (P_{p+1} - P_{p-1}) /
    (2p + 1) for p >= 1.
    """
    xg, wg = np.polynomial.legendre.leggauss(n)
    P = np.polynomial.legendre.legvander(xg, n)
    Q = np.column_stack((xg + 1.0, (P[:, 2:] - P[:, :-2]) / (2.0 * np.arange(1, n) + 1.0)))
    return (xg + 1.0) / 2.0, wg / 2.0, 0.5 * (Q * (np.arange(n) + 0.5)) @ (P[:, :n] * wg[:, None]).T


_ORDERS = (8, 6)  # the march's Gauss rules: the kept result's, then the error estimate's


@functools.cache
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (14, 1), block-diagonal Ahat (14, 14) and end weights (2, 14) of the march's two rules side by side.

    Built on the first march: it loads LAPACK and BLAS work space, about
    1 MiB, that a process which never marches does not need.
    """
    rules = [_gauss(n) for n in _ORDERS]
    return (np.concatenate([c for c, _, _ in rules])[:, None], block_diag(*(a for _, _, a in rules)),
            block_diag(*(b for _, b, _ in rules)))


def _linear(y, a, f, h: float, out=None):
    """Node values (14, ...), the two rules' end values (2, ...) and e^{I} of y' = a y + f on one step h from y.

    a and f hold their values at the nodes.  With I = h Ahat a, node k gets
    e^{I_k} (y + h sum_j Ahat_kj e^{-I_j} f_j); an end value takes the
    rule's weights in place of a row of Ahat, and is written to ``out``
    when given.  The (14, n) arrays are updated in place, since their count
    sets the march's peak memory.
    """
    _, ahat, ends = _rules()
    e = ahat @ a
    e *= h
    np.exp(e, out=e)
    q = f / e
    q *= h
    nodes = ahat @ q
    nodes += y
    nodes *= e
    return nodes, np.multiply(np.exp(h * (ends @ a)), y + ends @ q, out=out), e


def _shrunk(h: float, fac: float, s: float) -> float:
    """The step after a rejected step h at s; one below 10 ulp of s raises IntegrationError."""
    h *= fac
    if h < 10.0 * math.ulp(s):
        raise IntegrationError(f"characteristic transport failed at t = {s!r}: the step fell below 10 ulp of t")
    return h


def _factor(err: float) -> float:
    """Step-size factor 0.9 err^(-1/13) within [0.2, 10]: the error estimate is O(h^13); a non-finite one gives 0.2."""
    if err > 0.0:
        return min(10.0, max(0.2, 0.9 * err ** (-1.0 / 13.0)))
    return 10.0 if err == 0.0 else 0.2


@dataclass
class SolutionField:
    """PDE solution sampled on a tensor grid.

    G and Gx have shape (len(t), len(x)); origins holds the traced-back
    starting position of the characteristic through each grid point, and g
    the mean-degree trajectory built from h'(1).  The transport marched
    (L, psi, G - 1, G_x) along every curve and nothing else.  ``stats``
    holds the transport's ``node_evals`` (14 per step attempt, each one
    evaluation of g, the coefficients and the data equations on all live
    curves) and accepted ``steps``, summed over its ``segments``, and
    ``flow_rhs_evals``, the rhs evaluations of the dense (L, psi) solve
    behind the backward trace.
    """

    x: np.ndarray
    t: np.ndarray
    G: np.ndarray
    Gx: np.ndarray
    origins: np.ndarray
    g: ClosedFormMoment
    stats: dict


def _check_points(x_bar, t_bar) -> tuple[np.ndarray, np.ndarray]:
    """Scalars or equal-length 1-d arrays, x in [-1, 1] and t finite and nonnegative."""
    x = np.asarray(x_bar, dtype=float)
    t = np.asarray(t_bar, dtype=float)
    if x.shape != t.shape or x.ndim > 1 or x.size == 0:
        raise ValidationError(
            f"x and t must be scalars or nonempty 1-d arrays of equal length, got shapes {x.shape} and {t.shape}"
        )
    if not 0.0 <= t.min() <= t.max() < math.inf:  # NaN fails every comparison
        raise ValidationError("t must be finite and nonnegative")
    if not -1.0 - 1e-12 <= x.min() <= x.max() <= 1.0 + 1e-12:
        raise ValidationError(f"x must lie in [-1, 1], got [{np.min(x)!r}, {np.max(x)!r}]")
    return x, t


def _dense(sol):
    """(e^L, psi) at a time t from the dense DOP853 solution ``sol``, as scipy evaluates it.

    scipy's own call spends most of its time on setting up arrays for one
    time; this takes the same segment (the first whose end is not before
    t, clipped to the range) and sums the same interpolating polynomial in
    the same order on floats, so L and psi are the same to the last bit.
    It reads the fields t_old, h, y_old and F of scipy's DOP853 dense
    output, and the tests compare it with scipy's own call.
    """
    ts = sol.ts.tolist()
    segments = [(p.t_old, p.h, *p.y_old.tolist(), p.F[::-1].tolist()) for p in sol.interpolants]

    def at(t: float) -> tuple[float, float]:
        t_old, h, L, psi, rows = segments[min(max(bisect.bisect_left(ts, t) - 1, 0), len(segments) - 1)]
        x = (t - t_old) / h
        y0 = y1 = 0.0
        for k, (f0, f1) in enumerate(rows):
            c = x if k % 2 == 0 else 1.0 - x
            y0 = (y0 + f0) * c
            y1 = (y1 + f1) * c
        return math.exp(y0 + L), y1 + psi

    return at


def _check_grid(x_grid, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """x and t strictly increasing, x in [-1, 1], t finite and nonnegative."""
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    for name, v in (("x", x), ("t", t)):
        if v.ndim != 1 or v.size == 0 or not np.all(np.diff(v) > 0.0):
            raise ValidationError(f"{name} must be a strictly increasing 1-d sequence")
    _check_points(x[[0, -1]], t[[0, -1]])
    return x, t


def _pairs(x: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (x_i, t_j) of the tensor grid x x t in row order."""
    return np.tile(x, t.size), np.repeat(t, x.size)


class CharacteristicSolver:
    """Shared-state solver: one (L, psi) flow and one first step of the march per (rates, h) pair.

    The mean degree g is built from the derived moment-equation
    coefficients with g(0) = h'(1), which must be positive.  The dense
    (L, psi) flow behind the backward trace is built by the first query
    with t > 0, to the latest time that query asks for, and built again
    from t = 0 when a later query asks past it.  ``t_max`` is a hint for
    callers that query out of time order: the first build then reaches at
    least ``t_max``, which must be finite, and later queries up to it
    reuse the flow.
    """

    def __init__(self, rates: ProcessRates, h: InitialCondition, t_max: float = 0.0):
        if not isinstance(h, InitialCondition):
            raise ValidationError(f"h must be an InitialCondition, got {type(h).__name__}")
        self.rates = rates
        self.h = h
        self.g = ClosedFormMoment(derive_riccati(rates), h.mean_degree)
        self._flow = None  # dense (L, psi) on [0, self._horizon] once built
        self._flow_evals = 0  # rhs evaluations of the solve that built it
        self._first_steps = {}  # the march's first step by rtol
        t_max = float(t_max)
        if not t_max < math.inf:  # NaN included: an infinite horizon never ends the flow
            raise ValidationError(f"t_max must be finite, got {t_max!r}")
        self._horizon = max(t_max, 0.0)

    def _ensure(self, t: float):
        """(e^L, psi) at a time up to at least t, from the dense flow, for the backward trace."""
        if self._flow is None or t > self._horizon * (1.0 + 1e-12):
            self._horizon = max(self._horizon, t, 1e-9)
            rates, g = self.rates, self.g

            def rate(s, y):
                k = coefficients(rates, g(s))
                return k.A - k.B, (k.A - k.B) * y[1] + k.A

            # A = wsum / g: a first moment near the bottom of the double range
            # gives rates whose squares, in the solver's error norm, overflow
            try:
                with np.errstate(over="raise", invalid="raise"):
                    sol = solve_ivp(
                        rate,
                        (0.0, self._horizon),
                        [0.0, 0.0],
                        method="DOP853",
                        rtol=RTOL,
                        atol=ATOL,
                        dense_output=True,
                    )
            except FloatingPointError as exc:
                raise IntegrationError(
                    f"projected flow integration failed: {exc}; a rate of the flow is too large "
                    f"for double arithmetic (first moment g(0) = {g.g0!r})"
                ) from exc
            if sol.status != 0:
                raise IntegrationError(f"projected flow integration failed: {sol.message}")
            self._flow, self._flow_evals = _dense(sol.sol), sol.nfev
        return self._flow

    # -- backward map ------------------------------------------------------

    def trace_back(self, x_bar, t_bar):
        """Starting position at t = 0 of the characteristic through (x_bar, t_bar).

        x_bar and t_bar are scalars, giving a float, or equal-length 1-d
        arrays of pairs, giving an array.  Origins are clamped onto [-1, 1]
        when floating-point excursions stay below 1e-6; larger excursions
        raise AccuracyError.  An origin offset x0 - 1 below the normal double
        range (from t of about 200 on the paper's FIG2 rates) raises
        DomainError.
        """
        x, t = _check_points(x_bar, t_bar)
        x0, _ = self._trace_back_many(np.atleast_1d(x), np.atleast_1d(t))
        return float(x0[0]) if x.ndim == 0 else x0

    def _trace_back_many(self, x_bar: np.ndarray, t_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Origins x0 and offsets w0 of the curves through (x_bar, t_bar).

        w0 = e^L / (vbar - psi) is kept as computed rather than as x0 - 1,
        so it keeps its relative precision after x0 = 1 + w0 has rounded to
        1.  An offset below the normal double range raises DomainError.
        """
        x0 = np.minimum(np.maximum(x_bar, -1.0), 1.0)
        w0 = x0 - 1.0
        live = t_bar > 0.0
        if not live.any():
            return x0, w0
        xb, tb = x0[live], t_bar[live].tolist()
        flow = self._ensure(max(tb))
        at = {v: flow(v) for v in set(tb)}  # once per distinct time
        eL, psi = np.array([at[v] for v in tb]).T
        d = xb - 1.0
        with np.errstate(divide="ignore"):  # a curve on x = 1 has vbar = inf and the offset 0
            wo = eL / (1.0 / d - psi)
        lost = (wo > -_TINY) & (d < 0.0)
        if lost.any():
            i = int(np.argmax(lost))
            raise DomainError(
                f"the origin offset x0 - 1 = {wo[i]:.3e} of the curve through (x, t) = "
                f"({float(xb[i])!r}, {tb[i]!r}) is below the normal double range "
                f"(e^L(t) = {eL[i]:.3e}): t is past the transport's time range"
            )
        xo = 1.0 + wo
        if xo.min() < -1.0 - _CLAMP:
            i = int(np.argmin(xo))
            raise AccuracyError(
                f"traced origin {xo[i]!r} escapes [-1, 1] beyond the {_CLAMP} clamp "
                f"at (x, t) = ({xb[i]!r}, {tb[i]!r})"
            )
        x0[live], w0[live] = np.maximum(xo, -1.0), np.maximum(wo, -2.0)  # wo <= 0: vbar <= -1/2 and psi >= 0
        return x0, w0

    # -- transported values ------------------------------------------------

    def _march(self, x, t, init, rhs, rtol, atol):
        """Data at the pairs (x_i, t_i), sorted by t, carried from t = 0 in one forward pass.

        Each step attempt [s, s + h] (``_step``) evaluates g and the
        coefficients once, on the 14 nodes of the 8- and the 6-node Gauss
        rule.  From them come the march's own (L, psi) at the nodes, shared
        by every curve, and the curves' offsets w = x - 1 = w0 / (e^L +
        psi w0) there, from the origin offsets w0 the backward trace
        computed.  Every data row is a linear equation y' = a y + f along
        the curves and is stepped by ``_linear``; the node values of a row
        may enter the rows after it.

        ``init(x0)`` gives the data at the origins, shape (k, n), and
        ``rhs(s, w, c)`` is a generator over the k rows: it yields (a, f)
        of a row at the node times s, shape (14, 1), while the curves sit
        at 1 + w, shape (14, n_live), with c = coefficients(rates, g(s)),
        and is sent back that row's node values before it yields the next.

        The 8-node result is kept, and its difference from the 6-node
        result is the error estimate, in scipy's RMS norm: ``rtol`` on
        every component, ``atol`` on the data and the flow's own ``ATOL``
        on (L, psi), since a data ``atol`` as small as 1e-280 must not
        control L, which starts at 0.  The estimate is the 6-node rule's
        local error, O(h^13).  A step is accepted at an error of at most 1,
        and the next is h * min(10, max(0.2, 0.9 err^(-1/13))).  After an
        accepted step that factor also looks ahead (Gustafsson, ACM TOMS 20,
        1994): when the error constant err / h^13 grew since the last
        accepted step, it is expected to grow as much again, and the factor
        shrinks by the 13th root of that growth, down to 0.2.  A lone
        curve's constant grows 100- to 1,000-fold a step as it leaves x = 1
        near its own time.  A step that produces a non-finite value is
        rejected with the factor 0.2, and a rejected step below 10 ulp of s
        raises IntegrationError.  The first step is ``_first_step``, cut to
        the first segment.  Steps are cut at each distinct time, where the
        curves of that time are retired; the step size carries over, and a
        step cut short keeps the larger step it was handed.  Returns the
        data at each pair's own time, shape (k, n), the origins and the
        march's counts.
        """
        origins, w0 = self._trace_back_many(x, t)
        y = np.array(init(origins), dtype=float)
        L = psi = s = 0.0
        h = None
        last_step, last_err = 1.0, 0.0  # the last accepted step and its error
        stats = {"node_evals": 0, "steps": 0, "segments": 0}
        lo = int(np.searchsorted(t, 0.0, side="right"))  # curves at t = 0 keep their data
        for tj in np.unique(t[lo:]).tolist():
            h = self._first_step(tj, rtol, stats) if h is None else h
            w_live, y_live = w0[lo:], y[:, lo:]
            while s < tj:
                last = h >= tj - s
                step = tj - s if last else h
                L_new, psi_new, new, err = self._step(rhs, s, step, L, psi, w_live, y_live, rtol, atol)
                stats["node_evals"] += sum(_ORDERS)
                fac = _factor(err)
                if err <= 1.0:
                    if err > 0.0 and last_err > 0.0:
                        # the growth of err / h^13, from ratios: h^13 underflows for h below 1e-25
                        fac = max(0.2, fac * min(1.0, step / last_step * (last_err / err) ** (1.0 / 13.0)))
                    last_step, last_err = step, err
                    L, psi = L_new, psi_new
                    y_live[:] = new
                    s = tj if last else min(s + step, tj)
                    h = max(h, step * fac) if step < h else step * fac
                    stats["steps"] += 1
                else:
                    h = _shrunk(step, fac, s)
            stats["segments"] += 1
            lo = int(np.searchsorted(t, tj, side="right"))  # the curves of tj are retired
        stats["flow_rhs_evals"] = self._flow_evals
        return y, origins, stats

    def _first_step(self, tj: float, rtol: float, stats: dict) -> float:
        """The march's first step from t = 0, whose first distinct time is tj.

        The time scale of the coefficients at t = 0 is 1 / max(|A - B|, A).
        A first segment within it is tried whole: the step is the time
        scale, and the march cuts it to the segment.  Without A and B, (L,
        psi) stay 0, there is no time scale, and the step is infinite.  A
        longer first segment starts from the step that (L, psi) alone
        accept, found once per ``rtol``.  (L, psi) set the error of a first
        step and do not depend on the curves, so that step is a function of
        the rates and h only, and a query's answer never depends on earlier
        queries.  The probe steps (L, psi) with no curve from the time
        scale, shrinks by the march's factor until the step is accepted, and
        grows once when the time scale itself is accepted with room to
        spare.  Its node evaluations count in ``stats``.
        """
        c = coefficients(self.rates, self.g.g0)
        rate = max(abs(c.A - c.B), c.A)
        if tj * rate <= 1.0:
            return 1.0 / rate if rate > 0.0 else math.inf
        if rtol not in self._first_steps:

            def probe(h):
                stats["node_evals"] += sum(_ORDERS)
                return self._step(self._rows, 0.0, h, 0.0, 0.0, np.empty(0), np.empty((0, 0)), rtol, ATOL)[3]

            h = start = 1.0 / rate
            err = probe(h)
            while not err <= 1.0:
                h = _shrunk(h, _factor(err), 0.0)
                err = probe(h)
            if h == start and _factor(err) > 1.0 and probe(h * _factor(err)) <= 1.0:
                h *= _factor(err)
            self._first_steps[rtol] = h
        return self._first_steps[rtol]

    def _step(self, rhs, s: float, h: float, L: float, psi: float, w0, y, rtol: float, atol: float):
        """One step attempt of the march from s over h, on the live curves with origin offsets w0 and data y.

        Returns L, psi and the data at s + h by the 8-node rule, and the
        error estimate, which is nan when a value is not finite.  The
        (14, n) arrays of the step die with it.
        """
        nodes, _, weights = _rules()
        tau = s + h * nodes
        c = coefficients(self.rates, self.g(tau))
        with np.errstate(all="ignore"):  # a non-finite result rejects the step
            lam = c.A - c.B
            psi_k, psi_e, e = _linear(psi, lam, c.A, h)
            L_e = L + h * (weights @ lam)
            w = psi_k * w0
            w += np.exp(L) * e  # e^L at the nodes
            np.divide(w0, w, out=w)
            if not np.isfinite(w).all():
                return L, psi, None, math.nan
            ends = np.empty((2, *y.shape))
            rows = rhs(tau, w, c)
            y_k = None
            for i in range(y.shape[0]):
                a, f = rows.send(y_k)  # the first send starts the generator
                y_k, _, _ = _linear(y[i], a, f, h, out=ends[:, i])
            new, low = ends
            sq = np.sum(((new - low) / (atol + rtol * np.maximum(np.abs(y), np.abs(new)))) ** 2)
            for old, (hi, lw) in ((L, L_e[:, 0].tolist()), (psi, psi_e[:, 0].tolist())):
                sq += ((hi - lw) / (ATOL + rtol * max(abs(old), abs(hi)))) ** 2
        return float(L_e[0, 0]), float(psi_e[0, 0]), new, math.sqrt(sq / (2 + y.size))

    def _initial_data(self, x0: np.ndarray) -> np.ndarray:
        """(u, p1) = (h - 1, h') at the origins x0."""
        return np.array([self.h(x0) - 1.0, self.h.derivative(x0)], dtype=float)

    def _rows(self, s, w, k):
        """The rows (u, p1) = (G - 1, G_x) along the curves at x = 1 + w; k holds the coefficients at g(s).

        z = G obeys z' = hb z + c4 x^m, hb = w C - c4, so u = z - 1 obeys
        u' = hb u + (hb + c4 x^m), whose source is exactly -c4 + c4 = 0 at
        w = 0.  p1' is the x-derivative of z', fed by the node values of u.
        """
        m = self.rates.m
        x = 1.0 + w
        hb = w * k.C - k.c4
        u = yield hb, hb + k.c4 * x**m
        src = m * k.c4 * x ** (m - 1) if m > 0 else 0.0
        yield 2.0 * k.A * x - k.A - k.B + hb, k.C * (1.0 + u) + src

    def solve_at(self, x_bar, t_bar):
        """(G, G_x) at the point (x_bar, t_bar).

        x_bar and t_bar are scalars, giving two floats, or equal-length 1-d
        arrays of pairs, giving two arrays.  The curves of all pairs are
        transported in one forward pass, each retired at its own time.
        """
        x, t = _check_points(x_bar, t_bar)
        xs, ts = np.atleast_1d(x), np.atleast_1d(t)
        order = np.argsort(ts, kind="stable")
        data, _, _ = self._march(xs[order], ts[order], self._initial_data, self._rows, RTOL, ATOL)
        G, Gx = np.empty_like(data)
        G[order], Gx[order] = 1.0 + data[0], data[1]
        if x.ndim == 0:
            return float(G[0]), float(Gx[0])
        return G, Gx

    def solve_grid(self, x_grid, t_grid) -> SolutionField:
        """Solution field on the tensor grid x_grid x t_grid.

        x values must be strictly increasing inside [-1, 1]; t values
        nonnegative and strictly increasing.  The grid is transported as
        its pairs (x_i, t_j) in row order, in one forward pass.
        """
        x, t = _check_grid(x_grid, t_grid)
        shape = (t.size, x.size)
        data, origins, stats = self._march(*_pairs(x, t), self._initial_data, self._rows, RTOL, ATOL)
        u, Gx = data.reshape(2, *shape)
        return SolutionField(
            x=x, t=t, G=1.0 + u, Gx=Gx, origins=origins.reshape(shape), g=self.g, stats=stats
        )

    def solve_difference_grid(self, x_grid, t_grid, steady) -> np.ndarray:
        """Deviation field D(x, t) = G(x, t) - G*(x) on the tensor grid.

        Subtracting two separately computed O(1) fields floors the
        measurable deviation near machine epsilon times the field size.  D
        itself, however, satisfies the linear transport equation

            D_t = (x-1)(A x - B) D_x + ((x-1) C(t) - c4) D + S(x, t),

        where the source S collects the coefficient perturbations and is
        proportional to the moment gap g(t) - g_inf, available in
        cancellation-free closed form.  Transporting D along the exact
        characteristic paths therefore keeps full *relative* accuracy no
        matter how small the deviation has become, which is what late-time
        decay diagnostics need.  ``steady`` must be the stationary profile
        matching the rates, callable on arrays over [-1 - 2e-3, 1].

        Along a curve D is one data row of the march, D' = (w C - c4) D + S,
        stepped by the exponential Gauss quadrature with relative tolerance
        1e-10 and absolute tolerance 1e-280, so the step control stays
        relative however small D gets.  The source reads G* and dG*/dx at
        the curves' node positions from one cubic spline through G* on a
        fixed 4,097-point uniform mesh, value and slope from one index
        computation and one Horner pass per evaluation.  Both are smooth in
        x, so the step-size control sees no kinks where a curve crosses a
        mesh node.

        One residual rounding floor remains: the transported initial datum
        h(x0) - G*(x0) is an ordinary subtraction, and when h'(1) equals
        the equilibrium moment exactly its leading term cancels, leaving
        O((x0-1)^2) values that round at eps for origins within ~1e-8 of
        x = 1.  Late rows can then degrade to rounding noise (harmless for
        bend detection, which happens early and at O(1) magnitudes).

        Returns an array of shape (len(t_grid), len(x_grid)).
        """
        # scipy.interpolate is imported here: only this path needs it
        from scipy.interpolate import CubicSpline

        x, t = _check_grid(x_grid, t_grid)
        if not callable(steady):
            raise ValidationError("steady must be a callable stationary profile")
        g, h = self.g, self.h
        g_inf = g.equilibrium
        if not math.isfinite(g_inf):
            raise DomainError("no finite moment equilibrium; the deviation field has no target")

        xs_tab = np.linspace(-1.0 - 2e-3, 1.0, 4097)
        lookup = _value_and_slope(CubicSpline(xs_tab, np.asarray(steady(xs_tab), dtype=float)))

        def rhs(s, w, k):
            gap = g.gap(s)
            # A is linear in 1/g, so A(g) - A(g_inf) = A_g(g) g gap / g_inf
            # with g = g_inf + gap; A_g vanishes whenever g_inf does.
            dA = k.A_g * (g_inf + gap) * gap / g_inf if g_inf else 0.0
            gs, gsx = lookup(1.0 + w)
            # the source w ((dA x - B_g gap) G*' + C_g gap G*), built in gsx
            gsx *= dA * (1.0 + w) - k.B_g * gap
            gsx += k.C_g * gap * gs
            gsx *= w
            del gs
            yield w * k.C - k.c4, gsx

        active = x != 1.0
        xs = x[active]
        D = np.zeros((t.size, x.size))
        data, _, _ = self._march(*_pairs(xs, t), lambda x0: [h(x0) - steady(x0)], rhs, _DIFF_RTOL, 1e-280)
        D[:, active] = data.reshape(t.size, xs.size)
        return D


def _value_and_slope(spline):
    """(value, slope) lookup of a cubic spline whose breakpoints are uniform.

    One index computation replaces the spline's interval search: i is
    (x - x_0) / h clipped onto the first and the last interval and then
    truncated, which is its floor inside the mesh.  Outside it the end
    intervals extend their polynomials outward, as the spline itself does;
    only a rejected step of the march places a curve there.  Horner's rule
    on the coefficients of interval i in powers of r = x - x_i gives the
    value and the slope (de Boor, A Practical Guide to Splines).  The four
    coefficient rows are kept contiguous and gathered with ``take``, one at
    a time into an in-place Horner pass, which bounds the (14, n)
    temporaries of a march step.
    """
    knots = spline.x
    row0, row1, row2, row3 = (np.ascontiguousarray(row) for row in spline.c)
    n = knots.size - 1
    lo, scale = knots[0], n / (knots[-1] - knots[0])
    row1x2 = 2.0 * row1

    def lookup(x):
        i = np.clip((x - lo) * scale, 0, n - 1).astype(np.intp)
        r = x - knots.take(i)
        value, slope = row0.take(i), row0.take(i)  # ((c0 r + c1) r + c2) r + c3
        slope *= 3.0  # (3 c0 r + 2 c1) r + c2
        for v, c in ((value, row1), (slope, row1x2), (value, row2), (slope, row2), (value, row3)):
            v *= r
            v += c.take(i)
        return value, slope

    return lookup


# -- functional wrapper ----------------------------------------------------


def solve_grid(x_grid, t_grid, rates: ProcessRates, h: InitialCondition) -> SolutionField:
    """Solution field on a tensor grid; g is built from h'(1) internally."""
    return CharacteristicSolver(rates, h).solve_grid(x_grid, t_grid)
