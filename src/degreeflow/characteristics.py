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
transport marches (L, psi, p1, z) and nothing else.  Both data equations are
integrated along the exact x(t) path from the flow maps.  Substituting the
path (instead of integrating x jointly) matters: the raw x equation is
exponentially unstable forward in time near x = 1, and any x drift would
contaminate G through G_x.  At x = 1 the z equation reads -c4 z + c4, which
is exactly 0 at z = 1, so G(1, t) = 1 holds to the last bit.

Values are asked for at pairs (x_i, t_i): a single point, scattered points
or every pair (x_i, t_j) of a tensor grid.  They are transported in a single
forward pass: the curves through every pair start together from their
traced origins, stacked in one state vector that is integrated segment by
segment between the distinct times (the segmented bookkeeping of Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.6).  The state leads with
(L, psi), shared by every curve and carried over from segment to segment, so
each right-hand-side evaluation places the curves at
x - 1 = w0 / (e^L + psi w0), which is exactly 0 on the curve x = 1.  The
origin offsets w0 = e^{L(t_i)} / (vbar - psi(t_i)) come from the backward
map as computed, never as x0 - 1, which rounds to 0 once e^L is below
machine epsilon.  The dense (L, psi) integration serves only the backward
trace.  Each curve is retired at its own time t_i and never integrated past
it, because a forward path may leave [-1, 1] after its time, where the
denominator e^L + psi w0 can reach zero.

The solver's inputs are the rates, the initial condition h and the query
points.  g is built from h'(1), so it is always the field's own G_x(1, t).
The trace checks what can fail in floating point: an origin more than
1e-6 below x = -1 raises AccuracyError, and an origin offset below the
normal double range raises DomainError.  A forward roundtrip of an offset
through the same (e^L, psi) would give back xbar - 1 by algebra and measure
only rounding, so there is none; the flow's accuracy is verified in the
tests, against independent forward integrations.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import AccuracyError, DomainError, IntegrationError, ValidationError
from .initial import InitialCondition
from .model import ProcessRates, coefficients, derive_riccati
from .riccati import ClosedFormMoment, solve_closed_form

__all__ = [
    "RTOL",
    "ATOL",
    "SolutionField",
    "CharacteristicSolver",
    "solve_grid",
]

# Pinned integrator settings: adaptive embedded RK (DOP853) with dense output.
RTOL = 1e-9
ATOL = 1e-12
_CLAMP = 1e-6  # largest tolerated excursion of a traced origin below x = -1
_TINY = np.finfo(float).tiny  # smallest normal double: the least origin offset kept at full precision
_DIFF_RTOL = 1e-10  # relative tolerance of the deviation transport


@dataclass
class SolutionField:
    """PDE solution sampled on a tensor grid.

    G and Gx have shape (len(t), len(x)); origins holds the traced-back
    starting position of the characteristic through each grid point, and g
    the mean-degree trajectory built from h'(1).  The transport marched
    (L, psi, G_x, G) along every curve and nothing else.  ``stats`` holds
    the transport's ``rhs_evals`` and accepted ``steps``, summed over its
    ``segments``, and ``flow_rhs_evals``, the rhs evaluations of the dense
    (L, psi) solve behind the backward trace.
    """

    x: np.ndarray
    t: np.ndarray
    G: np.ndarray
    Gx: np.ndarray
    origins: np.ndarray
    rates: ProcessRates
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
    if not ((t >= 0.0) & (t < math.inf)).all():
        raise ValidationError("t must be finite and nonnegative")
    if not ((x >= -1.0 - 1e-12) & (x <= 1.0 + 1e-12)).all():
        raise ValidationError(f"x must lie in [-1, 1], got [{np.min(x)!r}, {np.max(x)!r}]")
    return x, t


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


def _flow_rate(k, psi: float) -> tuple[float, float]:
    """(L', psi') = (A - B, (A - B) psi + A) at coefficients k."""
    lam = k.A - k.B
    return lam, lam * psi + k.A


def _place(w0, L: float, psi: float):
    """Offsets x - 1 at a time where the flow is (L, psi), of the curves with origin offsets w0."""
    return w0 / (math.exp(L) + psi * w0)


class CharacteristicSolver:
    """Shared-state solver: one (L, psi) flow per (rates, h) pair.

    The mean degree g is built from the derived moment-equation
    coefficients with g(0) = h'(1), which must be positive.  ``t_max`` is
    the horizon the dense flow is first built to; it grows on demand.
    """

    def __init__(self, rates: ProcessRates, h: InitialCondition, t_max: float = 1.0):
        if not isinstance(h, InitialCondition):
            raise ValidationError(f"h must be an InitialCondition, got {type(h).__name__}")
        self.rates = rates
        self.h = h
        self.g = solve_closed_form(derive_riccati(rates), h.mean_degree)
        self._flow = None  # dense (L, psi) on [0, self._horizon] once built
        self._flow_evals = 0  # rhs evaluations of the solve that built it
        self._horizon = max(float(t_max), 0.0)

    def _ensure(self, t: float):
        """Dense (L, psi) up to at least t, for the backward trace."""
        if self._flow is None or t > self._horizon * (1.0 + 1e-12):
            self._horizon = max(self._horizon, t, 1e-9)
            rates, g = self.rates, self.g
            sol = solve_ivp(
                lambda s, y: _flow_rate(coefficients(rates, float(g(s))), y[1]),
                (0.0, self._horizon),
                [0.0, 0.0],
                method="DOP853",
                rtol=RTOL,
                atol=ATOL,
                dense_output=True,
            )
            if sol.status != 0:
                raise IntegrationError(f"projected flow integration failed: {sol.message}")
            self._flow, self._flow_evals = sol.sol, sol.nfev
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
        x0 = x_bar.clip(-1.0, 1.0)
        w0 = x0 - 1.0
        live = t_bar > 0.0
        if not live.any():
            return x0, w0
        xb, tb = x0[live], t_bar[live]
        flow = self._ensure(float(tb.max()))
        # (e^L, psi) once per distinct time, with math.exp like _place:
        # np.exp may differ from it in the last bit
        at = {}
        for v in set(tb.tolist()):
            L, psi = flow(v).tolist()
            at[v] = (math.exp(L), psi)
        eL, psi = np.array([at[v] for v in tb.tolist()]).T
        one_mask = xb == 1.0
        vbar = 1.0 / np.where(one_mask, -1.0, xb - 1.0)
        wo = np.where(one_mask, 0.0, eL / (vbar - psi))
        lost = ~one_mask & (wo > -_TINY)
        if lost.any():
            i = int(np.argmax(lost))
            raise DomainError(
                f"the origin offset x0 - 1 = {wo[i]:.3e} of the curve through (x, t) = "
                f"({float(xb[i])!r}, {float(tb[i])!r}) is below the normal double range "
                f"(e^L(t) = {eL[i]:.3e}): t is past the transport's time range"
            )
        xo = 1.0 + wo
        if (xo < -1.0 - _CLAMP).any():
            i = int(np.argmin(xo))
            raise AccuracyError(
                f"traced origin {xo[i]!r} escapes [-1, 1] beyond the {_CLAMP} clamp "
                f"at (x, t) = ({xb[i]!r}, {tb[i]!r})"
            )
        x0[live], w0[live] = xo.clip(-1.0, 1.0), wo.clip(-2.0, 0.0)
        return x0, w0

    # -- transported values ------------------------------------------------

    def _march(self, x, t, init, rhs, rtol, atol):
        """Data at the pairs (x_i, t_i), sorted by t, carried from t = 0 in one forward pass.

        The marched state leads with (L, psi), shared by every curve: they
        start at (0, 0), carry over from segment to segment and place each
        curve at offset w = x - 1 = w0 / (e^L + psi w0) from the origin
        offset w0 the backward trace computed, so no curve needs the dense
        flow.  (L, psi) keep the flow's own ``ATOL``, since a data ``atol``
        as small as 1e-280 must not control L, which starts at 0.  One
        segment runs from each distinct time to the next, and the curves of
        a time are retired at its end.  Each segment after the first starts
        from the largest step the previous one accepted, cut to its own
        length, instead of guessing a first step anew.

        ``init(x0)`` gives the data at the origins, shape (k, n), and
        ``rhs(s, y, w, c, out)`` writes its time derivative into ``out`` at
        time s while the curves sit at 1 + w, with c = coefficients(rates,
        g(s)).  y and out have shape (k, n_live).  A segment with a single
        live curve (every segment of a one-point query) passes y and out
        with shape (k,) and w as a numpy scalar instead, so the rhs runs on
        np.float64 values: each numpy call on a 1-element array costs about
        a microsecond, several times its arithmetic, and the rhs makes some
        twenty of them.  Returns the data at each pair's own time, shape
        (k, n), the origins and the solver counts.
        """
        rates, g = self.rates, self.g
        origins, w0 = self._trace_back_many(x, t)
        y = np.array(init(origins), dtype=float)
        k = y.shape[0]
        lpsi = np.zeros(2)  # (L, psi) at t_prev
        stats = {"rhs_evals": 0, "steps": 0, "segments": 0}
        t_prev, step = 0.0, None  # the next segment's first step, before the cut to its length
        lo = int(np.searchsorted(t, 0.0, side="right"))  # curves at t = 0 keep their data
        for tj in np.unique(t[lo:]).tolist():
            one = y.shape[1] - lo == 1  # a single live curve runs on numpy scalars
            shape = (k,) if one else (k, -1)

            def f(s, q, w0=w0[lo] if one else w0[lo:], shape=shape):
                c = coefficients(rates, float(g(s)))
                # a fresh array per call: the solver keeps the returned one
                dq = np.empty_like(q)
                dq[0], dq[1] = _flow_rate(c, q[1])
                rhs(s, q[2:].reshape(shape), _place(w0, q[0], q[1]), c, dq[2:].reshape(shape))
                return dq

            data = y[:, lo:].ravel()
            sol = solve_ivp(
                f,
                (t_prev, tj),
                np.concatenate((lpsi, data)),
                method="DOP853",
                rtol=rtol,
                atol=np.concatenate(((ATOL, ATOL), np.full(data.size, atol))),
                first_step=None if step is None else min(step, tj - t_prev),
            )
            if sol.status != 0:
                raise IntegrationError(f"characteristic transport failed on [{t_prev!r}, {tj!r}]: {sol.message}")
            end = sol.y[:, -1]
            lpsi = end[:2].copy()
            y[:, lo:] = end[2:].reshape(k, -1)
            stats["rhs_evals"] += sol.nfev
            stats["steps"] += sol.t.size - 1
            stats["segments"] += 1
            steps = np.diff(sol.t)
            # a segment crossed in one step was cut short by its end, not by
            # the error control: keep the larger step handed to it
            t_prev, step = tj, float(steps.max() if steps.size > 1 else max(step or 0.0, steps[0]))
            lo = int(np.searchsorted(t, tj, side="right"))  # the curves of tj are retired
            # scipy leaves each finished solver in a reference cycle that
            # holds a (16, n) stage array; collect it before they pile up.
            gc.collect(0)
        stats["flow_rhs_evals"] = self._flow_evals
        return y, origins, stats

    def _initial_data(self, x0: np.ndarray) -> np.ndarray:
        """(p1, z) = (h', h) at the origins x0."""
        return np.array([self.h.derivative(x0), self.h(x0)], dtype=float)

    def _rhs(self, s: float, y: np.ndarray, w: np.ndarray, k, out: np.ndarray) -> None:
        """d(p1, z)/dt along the curves at x = 1 + w into out; k holds the coefficients at g(s).

        z' = hb z + c4 x^m is G's own equation along a curve, hb = w C - c4;
        p1' is its x-derivative, fed by z.  At w = 0, hb z + c4 is exactly
        -c4 + c4 = 0 for z = 1.
        """
        m = self.rates.m
        p1, z = y
        x = 1.0 + w
        hb = w * k.C - k.c4
        src = m * k.c4 * x ** (m - 1) if m > 0 else 0.0
        out[0] = (2.0 * k.A * x - k.A - k.B + hb) * p1 + k.C * z + src
        out[1] = hb * z + k.c4 * x**m

    def solve_at(self, x_bar, t_bar):
        """(G, G_x) at the point (x_bar, t_bar).

        x_bar and t_bar are scalars, giving two floats, or equal-length 1-d
        arrays of pairs, giving two arrays.  The curves of all pairs are
        transported in one forward pass, each retired at its own time.
        """
        x, t = _check_points(x_bar, t_bar)
        xs, ts = np.atleast_1d(x), np.atleast_1d(t)
        order = np.argsort(ts, kind="stable")
        data, _, _ = self._march(xs[order], ts[order], self._initial_data, self._rhs, RTOL, ATOL)
        Gx, G = np.empty_like(data)
        Gx[order], G[order] = data
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
        data, origins, stats = self._march(*_pairs(x, t), self._initial_data, self._rhs, RTOL, ATOL)
        Gx, G = data.reshape(2, *shape)
        return SolutionField(
            x=x, t=t, G=G, Gx=Gx, origins=origins.reshape(shape), rates=self.rates, g=self.g, stats=stats
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

        The source reads G* and dG*/dx along the moving paths from one cubic
        spline through G* on a fixed 4,097-point uniform mesh, value and
        slope from one index computation and one Horner pass per evaluation.
        Both are smooth in x, so the step-size control sees no kinks where a
        curve crosses a mesh node.

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

        def rhs(s, d, w, k, out):
            gap = float(g.gap(s))
            # A is linear in 1/g, so A(g) - A(g_inf) = A_g(g) g gap / g_inf
            # with g = g_inf + gap; A_g vanishes whenever g_inf does.
            dA = k.A_g * (g_inf + gap) * gap / g_inf if k.A_g else 0.0
            xp = 1.0 + w
            gs, gsx = lookup(xp)
            src = w * ((dA * xp - k.B_g * gap) * gsx + k.C_g * gap * gs)
            out[:] = (w * k.C - k.c4) * d + src

        active = x != 1.0
        xs = x[active]
        D = np.zeros((t.size, x.size))
        data, _, _ = self._march(*_pairs(xs, t), lambda x0: [h(x0) - steady(x0)], rhs, _DIFF_RTOL, 1e-280)
        D[:, active] = data.reshape(t.size, xs.size)
        return D


def _value_and_slope(spline):
    """(value, slope) lookup of a cubic spline whose breakpoints are uniform.

    One index computation replaces the spline's interval search.  Every x
    asked for lies at or right of the first breakpoint, so truncating
    (x - x_0) / h is its floor; i is capped onto the last interval, which
    extends its polynomial outward as the spline itself does.  Horner's
    rule on the coefficients of interval i in powers of r = x - x_i gives
    the value and the slope (de Boor, A Practical Guide to Splines).  The
    four coefficient rows are kept contiguous and gathered with ``take``;
    x may be an array or a numpy scalar.
    """
    knots = spline.x
    row0, row1, row2, row3 = (np.ascontiguousarray(row) for row in spline.c)
    n = knots.size - 1
    lo, scale = knots[0], n / (knots[-1] - knots[0])

    def lookup(x):
        i = np.minimum(((x - lo) * scale).astype(np.intp), n - 1)
        r = x - knots.take(i)
        c0, c1, c2, c3 = row0.take(i), row1.take(i), row2.take(i), row3.take(i)
        return ((c0 * r + c1) * r + c2) * r + c3, (3.0 * c0 * r + 2.0 * c1) * r + c2

    return lookup


# -- functional wrapper ----------------------------------------------------


def solve_grid(x_grid, t_grid, rates: ProcessRates, h: InitialCondition) -> SolutionField:
    """Solution field on a tensor grid; g is built from h'(1) internally."""
    t = np.asarray(t_grid, dtype=float)
    t_max = float(t[-1]) if t.size else 1.0
    return CharacteristicSolver(rates, h, t_max).solve_grid(x_grid, t_grid)
