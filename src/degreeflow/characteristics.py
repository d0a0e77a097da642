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
traced origins and are stepped together.  Each curve is retired at its own
time t_i and never integrated past it, because a forward path may leave
[-1, 1] after its time, where the denominator e^L + psi w0 can reach zero.
A step that reaches several distinct times retires their curves inside
it, each over its own part of the step, so the number of steps follows
the error control rather than the number of output times.

Every equation of the march is linear with coefficients known in closed
form: (L, psi) above, and y' = a y + f for each data row.  A step [s, s+h]
therefore needs the coefficients at fixed nodes only, and no stage solve:
the exponential quadrature of Hochbruck and Ostermann (Exponential
integrators, Acta Numerica 19, 2010) on Gauss-Legendre nodes (Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.7).  g, the coefficients and
the curve positions x - 1 = w0 / (e^L + psi w0) are evaluated once per step
on the nodes of two rules together: an 8-node and a 6-node rule, or a
16-node and a 14-node rule when one curve alone is past t = 0, whose steps
only its accuracy limits.  With I = h Ahat a the integral of a up to each
node (Ahat_kj = int_0^{c_k} l_j), a row's node values are y_k = e^{I_k} (y +
h sum_j Ahat_kj e^{-I_j} f_j), and its end value takes the rule's weights in
place of a row of Ahat.  The larger rule's result is kept; its difference
from the smaller rule's result controls the step.
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
from .model import Coefficients, ProcessRates, coefficients, derive_riccati, real, real_or_array
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
_TINY = float(np.finfo(float).tiny)  # smallest normal double: the least origin offset kept at full precision
_DIFF_RTOL = 1e-10  # relative tolerance of the deviation transport
_BLOCK = 512  # curves per block of a step's node work: a (14, 512) array is 56 KiB


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


_PAIR = (8, 6)  # the march's Gauss rules: the kept result's nodes, then the error estimate's
_LONE_PAIR = (16, 14)  # the rules of a march with one curve past t = 0, whose steps only its accuracy limits


@functools.cache
def _rules(pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (n, 1), block-diagonal Ahat (n, n) and end weights (2, n) of the pair's two rules side by side.

    n = sum(pair).  Built on the first march: it loads LAPACK and BLAS
    work space, about 1 MiB, that a process which never marches does not
    need.
    """
    rules = [_gauss(n) for n in pair]
    return (np.concatenate([c for c, _, _ in rules])[:, None], block_diag(*(a for _, _, a in rules)),
            block_diag(*(b for _, b, _ in rules)))


def _linear(y, a, f, h: float, pair: tuple[int, int], out=None, nodes: bool = True):
    """Node values (n, ...), the two rules' end values (2, ...) and e^{I} of y' = a y + f on one step h from y.

    a and f hold their values at the n nodes of the rules of ``pair``.
    With I = h Ahat a, node k gets e^{I_k} (y + h sum_j Ahat_kj e^{-I_j}
    f_j); an end value takes the rule's weights in place of a row of Ahat,
    and is written to ``out`` when given.  The node values are None when
    ``nodes`` is false: only a row that a later row reads needs them, and
    the end values do not depend on them.  The (n, m) arrays are updated
    in place, since their count sets the march's peak memory.  A source f
    of None is a homogeneous row y' = a y, which has no node values and no
    e^{I}: its end values are y e^{h (ends @ a)}, the bits that a zero
    source gives for every y but -0.0.
    """
    _, ahat, ends = _rules(pair)
    if f is None:  # y' = a y
        return None, np.multiply(np.exp(h * (ends @ a)), y, out=out), None
    e = ahat @ a
    e *= h
    np.exp(e, out=e)
    q = f / e
    q *= h
    y_k = None
    if nodes:
        y_k = ahat @ q
        y_k += y
        y_k *= e
    return y_k, np.multiply(np.exp(h * (ends @ a)), y + ends @ q, out=out), e


def _shrunk(h: float, fac: float, s: float) -> float:
    """The step after a rejected step h at s; one below 10 ulp of s raises IntegrationError."""
    h *= fac
    if h < 10.0 * math.ulp(s):
        raise IntegrationError(f"characteristic transport failed at t = {s!r}: the step fell below 10 ulp of t")
    return h


def _gather(at, rhs, tau, c, psi_k, e, h):
    """``rhs`` at the node times and coefficients of the step's lengths ``at``, psi and e^L there, and the lengths."""
    return (rhs(tau.take(at, 1), Coefficients(*(v.take(at, 1) if isinstance(v, np.ndarray) else v for v in c))),
            psi_k.take(at, 1), e.take(at, 1), h.take(at))


def _factor(err: float, pair: tuple[int, int]) -> float:
    """Step-size factor 0.9 err^(-1/(2q+1)) within [0.2, 10]; a non-finite err gives 0.2.

    The error estimate is the local error of the q-node rule of ``pair``,
    O(h^(2q+1)): 1/13 for the (8, 6) pair, 1/29 for (16, 14).
    """
    if err > 0.0:
        return min(10.0, max(0.2, 0.9 * err ** (-1.0 / (2 * pair[1] + 1))))
    return 10.0 if err == 0.0 else 0.2


@dataclass
class SolutionField:
    """PDE solution sampled on a tensor grid.

    G and Gx have shape (len(t), len(x)), and g is the mean-degree
    trajectory built from h'(1).  The transport marched (L, psi, G - 1,
    G_x) along every curve and nothing else.  ``stats`` holds the
    transport's step ``attempts``, accepted and rejected, the first step's
    probe included; its ``node_evals``, 14 per attempt, or 30 when one
    curve is past t = 0 (each one evaluation of g and the coefficients on
    the node times of the attempt's step lengths, and of the data
    equations on all live curves); its accepted ``steps``; its
    ``segments``, the distinct times whose curves it retired (a step may
    retire several); and ``flow_rhs_evals``, the rhs evaluations of the
    dense (L, psi) solve behind the backward trace.
    """

    x: np.ndarray
    t: np.ndarray
    G: np.ndarray
    Gx: np.ndarray
    g: ClosedFormMoment
    stats: dict


def _check_ranges(x_lo: float, x_hi: float, t_lo: float, t_hi: float) -> None:
    """x in [-1, 1] and t finite and nonnegative, from the least and the largest of each."""
    if not 0.0 <= t_lo <= t_hi < math.inf:  # NaN fails every comparison
        raise ValidationError("t must be finite and nonnegative")
    if not -1.0 - 1e-12 <= x_lo <= x_hi <= 1.0 + 1e-12:
        raise ValidationError(f"x must lie in [-1, 1], got [{x_lo!r}, {x_hi!r}]")


def _check_points(x_bar, t_bar):
    """Two floats for two numbers, else two equal-length nonempty 1-d arrays; x in [-1, 1] and t finite and nonnegative.

    What is a number is decided by ``real_or_array``.  A one-point query
    takes its float path from the two floats: numpy spends some
    microseconds on each operation on a 0-d or 1-element array, which is
    most of the cost of one backward trace.
    """
    x, t = real_or_array(x_bar, "x"), real_or_array(t_bar, "t")
    if isinstance(x, float) and isinstance(t, float):
        _check_ranges(x, x, t, t)
        return x, t
    x, t = np.asarray(x), np.asarray(t)
    if x.shape != t.shape or x.ndim != 1 or x.size == 0:
        raise ValidationError(
            f"x and t must be scalars or nonempty 1-d arrays of equal length, got shapes {x.shape} and {t.shape}"
        )
    _check_ranges(float(x.min()), float(x.max()), float(t.min()), float(t.max()))
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
    segments = [(float(p.t_old), float(p.h), *p.y_old.tolist(), p.F[::-1].tolist()) for p in sol.interpolants]

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
    x, t = np.asarray(real_or_array(x_grid, "x")), np.asarray(real_or_array(t_grid, "t"))
    for name, v in (("x", x), ("t", t)):
        if v.ndim != 1 or v.size == 0 or not np.all(np.diff(v) > 0.0):
            raise ValidationError(f"{name} must be a strictly increasing 1-d sequence")
    _check_points(x[[0, -1]], t[[0, -1]])
    return x, t


def _lost(wo: float, x: float, t: float, eL: float) -> DomainError:
    """The error of an origin offset wo below the normal double range, on the curve through (x, t)."""
    return DomainError(
        f"the origin offset x0 - 1 = {wo:.3e} of the curve through (x, t) = ({x!r}, {t!r}) is below "
        f"the normal double range (e^L(t) = {eL:.3e}): t is past the transport's time range"
    )


def _escaped(xo: float, x: float, t: float) -> AccuracyError:
    """The error of a traced origin xo beyond the clamp below x = -1, on the curve through (x, t)."""
    return AccuracyError(f"traced origin {xo!r} escapes [-1, 1] beyond the {_CLAMP} clamp at (x, t) = ({x!r}, {t!r})")


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
    least ``t_max``, which must be a finite real number, and later
    queries up to it reuse the flow.  Rates that are not ProcessRates
    raise ValidationError.

    ``stats`` holds the counts of the last march, that is of the last
    ``solve_at``, ``solve_grid`` or ``solve_difference_grid`` call (empty
    before the first): its step ``attempts``, ``node_evals``, accepted
    ``steps``, ``segments`` and the dense flow's ``flow_rhs_evals``, as
    ``_march`` documents them.  A grid's ``SolutionField.stats`` is the
    same dict.
    """

    def __init__(self, rates: ProcessRates, h: InitialCondition, t_max: float = 0.0):
        if not isinstance(h, InitialCondition):
            raise ValidationError(f"h must be an InitialCondition, got {type(h).__name__}")
        self.rates = rates
        self.h = h
        self.g = ClosedFormMoment(derive_riccati(rates), h.mean_degree)
        self._flow = None  # dense (L, psi) on [0, self._horizon] once built
        self._flow_evals = 0  # rhs evaluations of the solve that built it
        self._first_steps = {}  # the march's first step by (rtol, pair)
        self.stats: dict = {}  # the last march's counts
        self._horizon = max(real("t_max", t_max), 0.0)  # an infinite horizon would never end the flow

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

        x_bar and t_bar are numbers, giving a float, or equal-length 1-d
        arrays of pairs, giving an array; anything numpy reads as a 0-d
        array is a number (``real_or_array``).  A pair of numbers is traced
        on Python floats by the same operations, in the same order, as a
        pair in an array, so both give the same bits and raise the same
        errors.
        Origins are clamped onto [-1, 1] when floating-point excursions stay
        below 1e-6; larger excursions raise AccuracyError.  An origin offset
        x0 - 1 below the normal double range (from t of about 200 on the
        paper's FIG2 rates) raises DomainError; the curve x = 1 has offset 0
        and traces to 1 at every t.
        """
        x, t = _check_points(x_bar, t_bar)
        if isinstance(x, float):
            return self._trace_back_one(x, t)[0]
        return self._trace_back_many(x, t)[0]

    def _trace_back_one(self, x_bar: float, t_bar: float) -> tuple[float, float]:
        """Origin x0 and offset w0 of the one curve through (x_bar, t_bar): ``_trace_back_many`` on floats.

        The same operations in the same order give the same bits and raise
        the same errors; w0 is x0 - 1 at t = 0 and kept as computed past it.
        """
        x0 = min(max(x_bar, -1.0), 1.0)
        d = x0 - 1.0
        if not t_bar > 0.0:
            return x0, d
        eL, psi = self._ensure(t_bar)(t_bar)
        wo = eL / ((1.0 / d if d else math.inf) - psi)  # a curve on x = 1 has vbar = inf and the offset 0
        if wo > -_TINY and d < 0.0:
            raise _lost(wo, x0, t_bar, eL)
        xo = 1.0 + wo
        if xo < -1.0 - _CLAMP:
            raise _escaped(xo, x0, t_bar)
        return max(xo, -1.0), max(wo, -2.0)  # wo <= 0: vbar <= -1/2 and psi >= 0

    def _trace_back_many(self, x_bar: np.ndarray, t_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Origins x0 and offsets w0 of the curves through (x_bar, t_bar).

        w0 = e^L / (vbar - psi) is kept as computed rather than as x0 - 1,
        so it keeps its relative precision after x0 = 1 + w0 has rounded to
        1.  An offset below the normal double range raises DomainError.
        The dense flow is evaluated once per distinct time past 0 and
        gathered onto the pairs; an error names the first pair at fault
        (the lowest origin for an escape) with its own x and t, as
        ``_trace_back_one`` names it.
        """
        x0 = np.minimum(np.maximum(x_bar, -1.0), 1.0)
        w0 = x0 - 1.0
        live = t_bar > 0.0
        if not live.any():
            return x0, w0
        xb, tb = x0[live], t_bar[live]
        times, which = np.unique(tb, return_inverse=True)
        flow = self._ensure(float(times[-1]))
        eL, psi = np.array([flow(v) for v in times.tolist()])[which].T  # once per distinct time
        d = xb - 1.0
        with np.errstate(divide="ignore"):  # a curve on x = 1 has vbar = inf and the offset 0
            wo = eL / (1.0 / d - psi)
        lost = (wo > -_TINY) & (d < 0.0)
        if lost.any():
            i = int(np.argmax(lost))
            raise _lost(float(wo[i]), float(xb[i]), float(tb[i]), float(eL[i]))
        xo = 1.0 + wo
        if xo.min() < -1.0 - _CLAMP:
            i = int(np.argmin(xo))
            raise _escaped(float(xo[i]), float(xb[i]), float(tb[i]))
        x0[live], w0[live] = np.maximum(xo, -1.0), np.maximum(wo, -2.0)  # wo <= 0: vbar <= -1/2 and psi >= 0
        return x0, w0

    # -- transported values ------------------------------------------------

    def _march(self, x0, w0, t, init, rhs, rtol, atol):
        """Data at times t, sorted, of the curves with origins x0 and offsets w0, carried from t = 0 in one pass.

        The caller traces the curves, ``_trace_back_many`` for arrays of
        pairs and ``_trace_back_one`` on floats for a single pair, and
        passes w0 as an array.  The time bookkeeping (the curves at t =
        0, the distinct times and one past the last curve of each) runs on
        t as a sorted Python list with ``bisect``: for one curve, numpy's
        set-up of 1-element arrays costs more than the arithmetic.

        The march steps with a pair (p, q) of Gauss rules of p > q nodes:
        (8, 6), or (16, 14) when exactly one curve is past t = 0.  Such a
        curve has one output time, so only its accuracy limits its steps;
        on a (p + q, 1) array an attempt costs about the same at 30 nodes
        as at 14, and (16, 14) takes 2.6 times fewer attempts.  Many curves
        are limited by their many output times, each group of curves
        needing short steps as it nears its own time, where more nodes are
        only cost.  Each step attempt [s, s + h] (``_step``)
        evaluates g and the coefficients once, on the p + q nodes of both
        rules.  From them come the march's own (L, psi) at the nodes,
        shared by every curve, and the curves' offsets w = x - 1 = w0 /
        (e^L + psi w0) there.  Every data row is a linear equation y' = a y
        + f along the curves and is stepped by ``_linear``; the node values
        of a row may enter the rows after it.

        ``init(x0)`` gives the data at the origins, shape (k, n); a scalar
        ``solve_at`` passes its one origin as a float.  ``rhs(s, c)``, with
        c = coefficients(rates, g(s)) at the node times s, returns
        ``rows(w)``, a generator over the k rows of a block of at most
        ``_BLOCK`` curves: it yields (a, f) of a row while the curves sit at
        1 + w, shape (p + q, n_block), and is sent back that row's node
        values before it yields the next; the last row's are not formed, and
        a row whose f is None has none (``_linear``).
        rhs is called once per step attempt with s of shape (p + q, 1), so
        what depends on s alone is formed once, or once per block with s of
        shape (p + q, n_block) in a step that retires curves inside it, each
        curve at the nodes of its own length.

        The p-node result is kept, and its difference from the q-node
        result is the error estimate, in scipy's RMS norm: ``rtol`` on
        every component, ``atol`` on the data and the flow's own ``ATOL``
        on (L, psi), since a data ``atol`` as small as 1e-280 must not
        control L, which starts at 0.  The estimate is the q-node rule's
        local error, O(h^(2q+1)): O(h^13) or O(h^29).  A step is accepted at
        an error of at most 1, and the next is h * min(10, max(0.2, 0.9
        err^(-1/(2q+1)))).  After an accepted step that factor also looks
        ahead (Gustafsson, ACM TOMS 20, 1994): when the error constant err /
        h^(2q+1) grew since the last accepted step, it is expected to grow
        as much again, and the factor shrinks by the (2q+1)th root of that
        growth, down to 0.2.  A lone
        curve's constant grows 100- to 1,000-fold a step as it leaves x = 1
        near its own time.  A step that produces a non-finite value is
        rejected with the factor 0.2, and a rejected step below 10 ulp of s
        raises IntegrationError.

        Each curve is retired at its own time.  A step is cut at a distinct
        time t when that is the one time it reaches (t - s <= h) or the last
        time of all; the first step, whose size is a guess
        (``_first_step``), is cut at the first time.  Any other step that
        reaches two or more times runs its full h and retires their curves
        inside it: a retiring curve is stepped over its own length t_i - s,
        on the nodes of that length, and the data and (L, psi) of every
        length enter the one error estimate.  Output times thus add steps
        only where the error control accepts less than two of their
        spacings.  The step size carries over, and a step cut short keeps
        the larger step it was handed, unless that was the first step's
        guess.  ``stats`` counts the step ``attempts``, the node
        evaluations (p + q per attempt), the accepted ``steps`` and the distinct
        times retired, ``segments``.  Returns the data at each pair's own
        time, shape (k, n), and the march's counts.
        """
        y = np.array(init(x0), dtype=float)
        L = psi = s = 0.0
        last_step, last_err = 1.0, 0.0  # the last accepted step and its error
        self.stats = stats = {"attempts": 0, "node_evals": 0, "steps": 0, "segments": 0}
        ts = t.tolist()
        lo = k = bisect.bisect_right(ts, 0.0)  # curves at t = 0 keep their data
        pair = _LONE_PAIR if len(ts) - lo == 1 else _PAIR
        growth = 1.0 / (2 * pair[1] + 1)  # the exponent of the error constant's growth
        times, ends = [], []  # the distinct times past 0, and one past the last curve of each
        while k < len(ts):
            times.append(ts[k])
            k = bisect.bisect_right(ts, ts[k], k)
            ends.append(k)
        h = self._first_step(times[0], rtol, pair, stats) if times else None
        i, w_live, y_live = 0, w0[lo:], y[:, lo:]  # times[i] is the first time not yet retired
        while i < len(times):
            j = i  # times[i:j] are within reach
            while j < len(times) and h >= times[j] - s:
                j += 1
            if s == 0.0:  # the first step is a guess (``_first_step``): it is cut at the first time
                j = min(j, i + 1)
            cut = j == i + 1 or j == len(times)
            step = times[j - 1] - s if cut else h
            inside = times[i : j - 1 if cut else j]  # the times retired inside the step, before its end
            lengths = [tk - s for tk in inside] + [step]
            # each live curve's index into lengths
            group = np.searchsorted(inside, t[lo:]) if inside else None
            L_new, psi_new, new, err = self._step(rhs, s, lengths, group, L, psi, w_live, y_live, rtol, atol, pair)
            stats["attempts"] += 1
            stats["node_evals"] += sum(pair)
            fac = _factor(err, pair)
            if err <= 1.0:
                if err > 0.0 and last_err > 0.0:
                    # the growth of err / h^(2q+1), from ratios: h^13 underflows below h = 1e-25, h^29 below 1e-11
                    fac = max(0.2, fac * min(1.0, step / last_step * (last_err / err) ** growth))
                last_step, last_err = step, err
                L, psi = L_new, psi_new
                y_live[:] = new
                # a step cut short keeps the larger step it was handed, unless that was the first guess
                h = max(h, step * fac) if step < h and s > 0.0 else step * fac
                s = times[j - 1] if cut else min(s + step, times[j])
                stats["steps"] += 1
                if j > i:  # the curves of times[i:j] are retired
                    stats["segments"] += j - i
                    lo, i = ends[j - 1], j
                    w_live, y_live = w0[lo:], y[:, lo:]
            else:
                h = _shrunk(step, fac, s)
        stats["flow_rhs_evals"] = self._flow_evals
        return y, stats

    def _first_step(self, tj: float, rtol: float, pair: tuple[int, int], stats: dict) -> float:
        """The march's first step from t = 0, whose first distinct time is tj.

        The time scale of the coefficients at t = 0 is 1 / max(|A - B|, A).
        A first segment within it is tried whole: the step is the time
        scale, and the march cuts it at the first time, as it cuts every
        first step.  Without A and B, (L, psi) stay 0, there is no time
        scale, and the step is infinite.  A longer first segment starts
        from the step that (L, psi) alone accept on the rules of ``pair``,
        found once per ``rtol`` and pair.  (L, psi) set the error of a first
        step and do not depend on the curves, so that step is a function of
        the rates and h only, and a query's answer never depends on earlier
        queries.  The probe steps (L, psi) with no curve from the time
        scale, shrinks by the march's factor until the step is accepted, and
        grows once when the time scale itself is accepted with room to
        spare.  Its attempts and node evaluations count in ``stats``.
        """
        c = coefficients(self.rates, self.g.g0)
        rate = max(abs(c.A - c.B), c.A)
        if tj * rate <= 1.0:
            return 1.0 / rate if rate > 0.0 else math.inf
        if (rtol, pair) not in self._first_steps:

            def probe(h):
                stats["attempts"] += 1
                stats["node_evals"] += sum(pair)
                empty = np.empty(0), np.empty((0, 0))
                return self._step(self._rows, 0.0, [h], None, 0.0, 0.0, *empty, rtol, ATOL, pair)[3]

            h = start = 1.0 / rate
            err = probe(h)
            while not err <= 1.0:
                h = _shrunk(h, _factor(err, pair), 0.0)
                err = probe(h)
            if h == start and _factor(err, pair) > 1.0 and probe(h * _factor(err, pair)) <= 1.0:
                h *= _factor(err, pair)
            self._first_steps[rtol, pair] = h
        return self._first_steps[rtol, pair]

    def _step(self, rhs, s: float, lengths, group, L: float, psi: float, w0, y, rtol: float, atol: float, pair):
        """One step attempt of the march from s, on the live curves with origin offsets w0 and data y.

        Curve i is stepped over ``lengths[group[i]]``; ``group`` is None
        when every curve takes ``lengths[0]``.  The last length is the
        step.  g and the coefficients are evaluated once, on the node times
        of the rules of ``pair`` for every length, shape (sum(pair),
        len(lengths)), and each curve reads those of its own length.  The
        node work runs on blocks of at most ``_BLOCK`` curves, whose end
        values are written into full-width arrays; the error norm is taken
        once over those, so the blocks change no bit.  Returns L, psi and
        the data at the curves' ends by the pair's larger rule, and the
        error estimate over the data and the (L, psi) of every length,
        which is nan when a value is not finite.
        """
        nodes, _, weights = _rules(pair)
        m = len(lengths)
        h = lengths[0] if m == 1 else np.array(lengths)
        tau = s + h * nodes
        c = coefficients(self.rates, self.g(tau))
        ends = np.empty((2, *y.shape))
        with np.errstate(all="ignore"):  # a non-finite result rejects the step
            lam = c.A - c.B
            psi_k, psi_e, e = _linear(psi, lam, c.A, h, pair)
            L_e = L + h * (weights @ lam)
            e *= np.exp(L)  # e^L at the nodes
            if m == 1:  # one rhs call per attempt
                rows_of, psi_b, e_b, h_b = rhs(tau, c), psi_k, e, h
            for a0 in range(0, w0.size, _BLOCK):
                cols = slice(a0, a0 + _BLOCK)
                if m > 1:  # each curve reads the column of its length, a block of one length one column
                    at = group[cols]
                    rows_of, psi_b, e_b, h_b = _gather(at[:1] if at[0] == at[-1] else at, rhs, tau, c, psi_k, e, h)
                w = psi_b * w0[cols]
                w += e_b
                np.divide(w0[cols], w, out=w)
                if np.count_nonzero(np.isfinite(w)) < w.size:
                    # once e^L underflows to 0 the curve x = 1 sits at 0 / 0; it stays at w = 0
                    w[:, w0[cols] == 0.0] = 0.0
                    if not np.isfinite(w).all():
                        return L, psi, None, math.nan
                rows = rows_of(w)
                y_k = None
                for i in range(y.shape[0]):
                    a, f = rows.send(y_k)  # the first send starts the generator
                    y_k, _, _ = _linear(y[i, cols], a, f, h_b, pair, out=ends[:, i, cols], nodes=i + 1 < y.shape[0])
            new, low = ends
            sq = (((new - low) / (atol + rtol * np.maximum(np.abs(y), np.abs(new)))) ** 2).sum()
            for k in range(m):
                for old, (hi, lw) in ((L, L_e[:, k].tolist()), (psi, psi_e[:, k].tolist())):
                    sq += ((hi - lw) / (ATOL + rtol * max(abs(old), abs(hi)))) ** 2
        return float(L_e[0, -1]), float(psi_e[0, -1]), new, math.sqrt(sq / (2 * m + y.size))

    def _initial_data(self, x0):
        """(u, p1) = (h - 1, h') at the origins x0, shape (2, n); a float x0 is one origin, read on floats."""
        return np.reshape([self.h(x0) - 1.0, self.h.derivative(x0)], (2, -1))

    def _rows(self, s, k):
        """``rows(w)``, the rows (u, p1) = (G - 1, G_x) along the curves at x = 1 + w; k holds the coefficients at g(s).

        z = G obeys z' = hb z + c4 x^m, hb = w C - c4, so u = z - 1 obeys
        u' = hb u + (hb + c4 x^m), whose source is exactly -c4 + c4 = 0 at
        w = 0.  p1' is the x-derivative of z', fed by the node values of u.
        """
        m = self.rates.m

        def rows(w):
            x = 1.0 + w
            hb = w * k.C - k.c4
            u = yield hb, hb + k.c4 * x**m
            src = m * k.c4 * x ** (m - 1) if m > 0 else 0.0
            yield 2.0 * k.A * x - k.A - k.B + hb, k.C * (1.0 + u) + src

        return rows

    def solve_at(self, x_bar, t_bar):
        """(G, G_x) at the point (x_bar, t_bar).

        x_bar and t_bar are numbers, giving two floats, or equal-length 1-d
        arrays of pairs, giving two arrays, as for ``trace_back``.  The
        curves of all pairs are transported in one forward pass, each
        retired at its own time.  A pair of numbers is checked and traced
        on floats (``_trace_back_one``), its initial data are read on
        floats, and it is marched as the one curve it is, with no sorting
        of times; it gives the same bits, and raises the same errors, as
        the same pair in an array.  G(1, t) = 1 at every t.
        """
        x, t = _check_points(x_bar, t_bar)
        if isinstance(x, float):
            x0, w0 = self._trace_back_one(x, t)
            (u,), (gx,) = self._march(x0, np.array([w0]), np.array([t]), self._initial_data, self._rows, RTOL, ATOL)[0]
            return 1.0 + float(u), float(gx)
        order = np.argsort(t, kind="stable")
        x, t = x[order], t[order]
        data, _ = self._march(*self._trace_back_many(x, t), t, self._initial_data, self._rows, RTOL, ATOL)
        G, Gx = np.empty_like(data)
        G[order], Gx[order] = 1.0 + data[0], data[1]
        return G, Gx

    def solve_grid(self, x_grid, t_grid) -> SolutionField:
        """Solution field on the tensor grid x_grid x t_grid.

        x values must be strictly increasing inside [-1, 1]; t values
        nonnegative and strictly increasing.  The grid is transported as
        its pairs (x_i, t_j) in row order, in one forward pass.
        """
        x, t = _check_grid(x_grid, t_grid)
        xs, ts = _pairs(x, t)
        data, stats = self._march(*self._trace_back_many(xs, ts), ts, self._initial_data, self._rows, RTOL, ATOL)
        u, Gx = data.reshape(2, t.size, x.size)
        return SolutionField(x=x, t=t, G=1.0 + u, Gx=Gx, g=self.g, stats=stats)

    def _source_vanishes(self, table) -> bool:
        """Whether the deviation source S is 0 at every x and t, decided once from the inputs.

        S is proportional to the moment gap g(t) - g_inf, so it vanishes
        when g(0) = g_inf: ``g.gap`` is then exactly 0.0 in every closed
        form, and G* is not tabulated.  Otherwise ``table()`` gives G* on
        the transport's mesh, and S vanishes when that is constant and
        omega_r G* = 0: the spline of constant data has slope 0 exactly,
        and C_g = omega_r.
        """
        if self.g.g0 == self.g.equilibrium:
            return True
        tab = table()
        return bool(np.all(tab == tab[0])) and self.rates.omega_r * tab[0] == 0.0

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
        relative however small D gets.  Where that control accepts steps
        longer than the spacing of ``t_grid``, a step retires the curves of
        every time it reaches (``_march``): on 41 x 51 grids to t = 5, FIG6
        and FIG7 with h = x^2 take 7 and 8 steps, not 50.  The source reads
        G* and dG*/dx at the curves' node positions from one cubic spline
        through G* on a fixed 4,097-point uniform mesh, value and slope
        from one index computation and one Horner pass per evaluation.  Both are smooth in
        x, so the step-size control sees no kinks where a curve crosses a
        mesh node.  S vanishes identically when g(0) = g_inf, or when G* is
        constant on the mesh and omega_r G* = 0, as with no node addition
        and no uniform attachment (G* = 1, omega_r = 0); the rows are then
        homogeneous, D' = (w C - c4) D, with no spline and no lookup at the
        nodes, and with no mesh at all when g(0) = g_inf
        (``_source_vanishes``).  Each end value is then D e^{int (w C -
        c4)}, the bits that the zero source gives.

        One residual rounding floor remains: the transported initial datum
        h(x0) - G*(x0) is an ordinary subtraction, and when h'(1) equals
        the equilibrium moment exactly its leading term cancels, leaving
        O((x0-1)^2) values that round at eps for origins within ~1e-8 of
        x = 1.  Late rows can then degrade to rounding noise (harmless for
        bend detection, which happens early and at O(1) magnitudes).

        Returns an array of shape (len(t_grid), len(x_grid)).
        """
        x, t = _check_grid(x_grid, t_grid)
        if not callable(steady):
            raise ValidationError("steady must be a callable stationary profile")
        g, h = self.g, self.h
        g_inf = g.equilibrium
        if not math.isfinite(g_inf):
            raise DomainError("no finite moment equilibrium; the deviation field has no target")

        xs_tab = np.linspace(-1.0 - 2e-3, 1.0, 4097)
        table = functools.cache(lambda: np.asarray(steady(xs_tab), dtype=float))
        if self._source_vanishes(table):

            def rhs(s, k):
                def rows(w):
                    yield w * k.C - k.c4, None

                return rows

        else:
            # scipy.interpolate is imported here: only this path needs it
            from scipy.interpolate import CubicSpline

            lookup = _value_and_slope(CubicSpline(xs_tab, table()))

            def rhs(s, k):
                gap = g.gap(s)
                # A is linear in 1/g, so A(g) - A(g_inf) = A_g(g) g gap / g_inf
                # with g = g_inf + gap; A_g vanishes whenever g_inf does.
                dA = k.A_g * (g_inf + gap) * gap / g_inf if g_inf else 0.0
                b_gap, c_gap = k.B_g * gap, k.C_g * gap

                def rows(w):
                    x = 1.0 + w
                    gs, src = lookup(x)
                    # the source w ((dA x - B_g gap) G*' + C_g gap G*), built in src; x and gs take the products
                    src *= np.subtract(np.multiply(x, dA, out=x), b_gap, out=x)
                    src += np.multiply(gs, c_gap, out=gs)
                    src *= w
                    del x, gs
                    yield w * k.C - k.c4, src

                return rows

        active = x != 1.0
        xs = x[active]
        D = np.zeros((t.size, x.size))
        xp, tp = _pairs(xs, t)
        data, _ = self._march(*self._trace_back_many(xp, tp), tp, lambda x0: [h(x0) - steady(x0)], rhs, _DIFF_RTOL,
                              1e-280)
        D[:, active] = data.reshape(t.size, xs.size)
        return D


def _value_and_slope(spline):
    """(value, slope) lookup of a cubic spline whose breakpoints are uniform.

    One index computation replaces the spline's interval search: i is
    (x - x_0) / h capped at the last interval and then truncated, which is
    its floor inside the mesh; every gather clips i onto [0, n - 1], so a
    point below the mesh, where i is negative or the cast out of range,
    takes the first interval.  Outside the mesh the end intervals extend
    their polynomials outward, as the spline itself does; only a rejected
    step of the march places a curve there.  Horner's rule on the
    coefficients of interval i in powers of r = x - x_i gives the value
    and the slope (de Boor, A Practical Guide to Splines).  The four
    coefficient rows are kept contiguous and gathered with ``take`` into
    an in-place Horner pass, which bounds the (14, n) temporaries of a
    march step.  Each row is gathered once per lookup: rows 0 and 2 feed
    both the value and the slope, and 2 c1 is the gathered c1 doubled,
    which is exact.
    """
    knots = spline.x
    row0, row1, row2, row3 = (np.ascontiguousarray(row) for row in spline.c)
    n = knots.size - 1
    lo, scale = knots[0], n / (knots[-1] - knots[0])

    def lookup(x):
        u = x - lo
        u *= scale
        i = np.minimum(u, n - 1, out=u).astype(np.intp)
        r = x - knots.take(i, mode="clip")
        value = row0.take(i, mode="clip")  # ((c0 r + c1) r + c2) r + c3
        slope = value * 3.0  # (3 c0 r + 2 c1) r + c2
        c = row1.take(i, mode="clip")
        value *= r
        value += c
        c += c  # 2 c1
        slope *= r
        slope += c
        row2.take(i, out=c, mode="clip")
        for v in (value, slope):
            v *= r
            v += c
        value *= r
        value += row3.take(i, out=c, mode="clip")
        return value, slope

    return lookup


# -- functional wrapper ----------------------------------------------------


def solve_grid(x_grid, t_grid, rates: ProcessRates, h: InitialCondition) -> SolutionField:
    """Solution field on a tensor grid; g is built from h'(1) internally."""
    return CharacteristicSolver(rates, h).solve_grid(x_grid, t_grid)
