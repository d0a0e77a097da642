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
[-1, 1] never leave it.  The remaining characteristic unknowns
(p1, p2, z) = (G_x, G_t, G) obey a linear system integrated along the exact
x(t) path from the flow maps.  Substituting the path (instead of integrating
x jointly) matters: the raw x equation is exponentially unstable forward in
time near x = 1, and any x drift would contaminate G through G_x.

Grids are transported in a single forward pass: the curves through the grid
points of every output time start together from their traced origins,
stacked in one state vector that is integrated segment by segment over
[t_{j-1}, t_j] (the segmented bookkeeping of Hairer, Norsett and Wanner,
Solving ODEs I, sec. II.6).  The state leads with (L, psi), shared by every
curve and carried over from segment to segment, so each right-hand-side
evaluation places the curves at x - 1 = w0 / (e^L + psi w0), w0 = x0 - 1,
which is exactly 0 on the curve x = 1.  The dense (L, psi) integration
serves only the backward trace and its roundtrip check.  The curves of time
t_j are retired at t_j and never integrated past it, because a forward path
may leave [-1, 1] after its output time, where the denominator e^L + psi w0
can reach zero.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import AccuracyError, DomainError, IntegrationError, ValidationError
from .initial import InitialCondition
from .model import ProcessRates, coefficients, derive_riccati, evaluate_H
from .riccati import MomentTrajectory, moment_rhs, solve_closed_form

__all__ = [
    "RTOL",
    "ATOL",
    "SolutionField",
    "CharacteristicSolver",
    "trace_back",
    "solve_at",
    "solve_grid",
]

# Pinned integrator settings: adaptive embedded RK (DOP853) with dense output.
RTOL = 1e-9
ATOL = 1e-12
_CLAMP = 1e-6  # largest tolerated excursion of a traced origin below x = -1


@dataclass
class SolutionField:
    """PDE solution sampled on a tensor grid.

    G and Gx have shape (len(t), len(x)); origins holds the traced-back
    starting position of the characteristic through each grid point, and p2
    the transported G_t values (used by the self-consistency checks).
    ``stats`` holds the transport's ``rhs_evals`` and accepted ``steps``,
    summed over its ``segments`` (the flow behind the backward trace is not
    counted).
    """

    x: np.ndarray
    t: np.ndarray
    G: np.ndarray
    Gx: np.ndarray
    origins: np.ndarray
    p2: np.ndarray
    rates: ProcessRates
    g: MomentTrajectory
    stats: dict


def _check_grid(x_grid, t_grid) -> tuple[np.ndarray, np.ndarray]:
    """x strictly increasing in [-1, 1], t finite, nonnegative and strictly increasing."""
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if x.ndim != 1 or x.size == 0 or not np.all(np.diff(x) > 0.0):
        raise ValidationError("x must be a strictly increasing 1-d sequence")
    if t.ndim != 1 or t.size == 0 or not np.all(np.diff(t) > 0.0) or not 0.0 <= t[0] <= t[-1] < math.inf:
        raise ValidationError("t must be finite, nonnegative and strictly increasing")
    if not -1.0 - 1e-12 <= x[0] <= x[-1] <= 1.0 + 1e-12:
        raise ValidationError(f"x must lie in [-1, 1], got [{x[0]!r}, {x[-1]!r}]")
    return x, t


def _flow_rate(k, psi: float) -> tuple[float, float]:
    """(L', psi') = (A - B, (A - B) psi + A) at coefficients k."""
    lam = k.A - k.B
    return lam, lam * psi + k.A


def _place(w0, L: float, psi: float):
    """Offsets x - 1 at a time where the flow is (L, psi), of the curves with origin offsets w0."""
    return w0 / (math.exp(L) + psi * w0)


class CharacteristicSolver:
    """Shared-state solver: one (L, psi) flow per (rates, g) pair.

    Either pass a moment trajectory ``g`` or an initial condition ``h`` (the
    trajectory is then built from the derived moment-equation coefficients
    with g(0) = h'(1) > 0).
    """

    def __init__(
        self,
        rates: ProcessRates,
        g: MomentTrajectory | None = None,
        h: InitialCondition | None = None,
        t_max: float = 1.0,
    ):
        self.rates = rates
        self.h = h
        if g is None:
            if h is None:
                raise ValidationError("provide a moment trajectory g or an initial condition h")
            g = solve_closed_form(derive_riccati(rates), h.mean_degree)
        if not isinstance(g, MomentTrajectory):
            raise ValidationError(f"g must be a first-moment trajectory, got {type(g).__name__}")
        self.g = g
        self._flow = None  # dense (L, psi) on [0, self._horizon] once built
        self._horizon = max(float(t_max), 0.0)

    def _ensure(self, t: float):
        """Dense (L, psi) up to at least t, for the backward trace and its roundtrip check."""
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
            self._flow = sol.sol
        return self._flow

    # -- backward map ------------------------------------------------------

    def trace_back(self, x_bar: float, t_bar: float, tol: float = 1e-8) -> float:
        """Starting position at t = 0 of the characteristic through (x_bar, t_bar).

        The result is clamped onto [-1, 1] when floating-point excursions stay
        below 1e-6; larger excursions, or a failed forward roundtrip check at
        ``tol``, raise AccuracyError.
        """
        x, t = _check_grid([x_bar], [t_bar])
        return float(self._trace_back_many(x, float(t[0]), tol)[0])

    def _trace_back_many(self, x_bar: np.ndarray, t_bar: float, tol: float) -> np.ndarray:
        x_bar = np.clip(x_bar, -1.0, 1.0)
        if t_bar == 0.0:
            return x_bar.copy()
        L, psi = self._ensure(t_bar)(t_bar).tolist()
        one_mask = x_bar == 1.0
        vbar = 1.0 / np.where(one_mask, -1.0, x_bar - 1.0)
        x0 = np.where(one_mask, 1.0, 1.0 + math.exp(L) / (vbar - psi))
        low = x0 < -1.0
        if np.any(x0[low] < -1.0 - _CLAMP):
            worst = float(np.min(x0))
            raise AccuracyError(
                f"traced origin {worst!r} escapes [-1, 1] beyond the {_CLAMP} clamp "
                f"(t = {t_bar!r})"
            )
        x0 = np.clip(x0, -1.0, 1.0)
        # Forward roundtrip self-check on the rounded result.  Rounding x0
        # to double perturbs x0 - 1 by ~eps/|x0 - 1| relatively, and the
        # forward map amplifies that by dxbar/dx0 = e^L (xbar-1)^2/(x0-1)^2;
        # that unavoidable share is added to the tolerance so the check
        # measures integration accuracy, not representation error.
        back = 1.0 + _place(x0 - 1.0, L, psi)
        err = np.abs(back - x_bar)
        eps = np.finfo(float).eps
        gap0 = np.where(one_mask, 1.0, x0 - 1.0)
        amp = math.exp(L) * np.where(one_mask, 0.0, (back - 1.0) ** 2 / gap0**2)
        allow = tol + eps * np.abs(x0) * amp
        if np.any(err > allow):
            i = int(np.argmax(err - allow))
            raise AccuracyError(
                f"roundtrip error {err[i]:.3e} exceeds {allow[i]:.3e} at (x, t) = "
                f"({x_bar[i]!r}, {t_bar!r})"
            )
        return x0

    # -- transported values ------------------------------------------------

    def _march(self, x, t, tol, init, rhs, rtol, atol):
        """Data at every grid point, carried from t = 0 in one forward pass.

        The marched state leads with (L, psi), shared by every curve: they
        start at (0, 0), carry over from segment to segment and place each
        curve at offset w = x - 1 = w0 / (e^L + psi w0) from its origin
        offset w0 = x0 - 1, so no curve needs the dense flow.  (L, psi) keep
        the flow's own ``ATOL``, since a data ``atol`` as small as 1e-280
        must not control L, which starts at 0.

        ``init(x0)`` gives the data at the origins, shape (k, n), and
        ``rhs(s, gv, y, w, c)`` its time derivative at time s while the
        curves sit at 1 + w, with gv = g(s) and c = coefficients(rates, gv).
        Returns the data, shape (k, len(t), len(x)), the origins and the
        transport's solver counts.
        """
        if self.h is None:
            raise ValidationError("an initial condition h is required to evaluate G")
        rates, g = self.rates, self.g
        n_x, times = x.size, t.tolist()
        self._ensure(times[-1])
        origins = np.empty((t.size, n_x))
        for j, tj in enumerate(times):
            try:
                origins[j] = self._trace_back_many(x, tj, tol)
            except AccuracyError as exc:
                raise AccuracyError(f"{exc} [at output time t = {tj!r}]") from exc
        w0 = origins.ravel() - 1.0
        y = np.array(init(origins.ravel()), dtype=float)
        k = y.shape[0]
        out = np.empty((k, t.size, n_x))
        lpsi = np.zeros(2)  # (L, psi) at t_prev
        stats = {"rhs_evals": 0, "steps": 0, "segments": 0}
        t_prev = 0.0
        for j, tj in enumerate(times):
            lo = j * n_x  # the curves of earlier output times are retired
            if tj > t_prev:

                def f(s, q, w0=w0[lo:]):
                    gv = float(g(s))
                    c = coefficients(rates, gv)
                    d = rhs(s, gv, q[2:].reshape(k, -1), _place(w0, q[0], q[1]), c)
                    return np.concatenate((_flow_rate(c, q[1]), np.ravel(d)))

                data = y[:, lo:].ravel()
                sol = solve_ivp(
                    f,
                    (t_prev, tj),
                    np.concatenate((lpsi, data)),
                    method="DOP853",
                    rtol=rtol,
                    atol=np.concatenate(((ATOL, ATOL), np.full(data.size, atol))),
                )
                if sol.status != 0:
                    raise IntegrationError(
                        f"characteristic transport failed on [{t_prev!r}, {tj!r}]: {sol.message} "
                        f"[at output time t = {tj!r}]"
                    )
                end = sol.y[:, -1]
                lpsi = end[:2].copy()
                y[:, lo:] = end[2:].reshape(k, -1)
                stats["rhs_evals"] += sol.nfev
                stats["steps"] += sol.t.size - 1
                stats["segments"] += 1
                t_prev = tj
                # scipy leaves each finished solver in a reference cycle that
                # holds a (16, n) stage array; collect it before they pile up.
                gc.collect(0)
            out[:, j] = y[:, lo : lo + n_x]
        return out, origins, stats

    def _initial_data(self, x0: np.ndarray) -> np.ndarray:
        """(p1, p2, z) = (h', H, h) at the origins x0."""
        p1 = np.asarray(self.h.derivative(x0), dtype=float)
        z = np.asarray(self.h(x0), dtype=float)
        return np.array([p1, evaluate_H(p1, z, x0, 0.0, self.rates, self.g), z])

    def _rhs(self, s: float, gv: float, y: np.ndarray, w: np.ndarray, k) -> np.ndarray:
        """d(p1, p2, z)/dt along the curves at x = 1 + w at time s, gv = g(s), k = coefficients at gv.

        g'(s) comes from the moment equation's right-hand side at gv, never
        from finite differences.
        """
        m = self.rates.m
        p1, p2, z = y
        x = 1.0 + w
        hb = w * k.C - k.c4
        src = m * k.c4 * x ** (m - 1) if m > 0 else 0.0
        dp1 = (2.0 * k.A * x - k.A - k.B + hb) * p1 + k.C * z + src
        dp2 = w * moment_rhs(self.g.coeffs, gv) * ((k.A_g * x - k.B_g) * p1 + k.C_g * z) + hb * p2
        dz = -w * (k.A * x - k.B) * p1 + p2
        return np.concatenate([dp1, dp2, dz])

    def solve_at(self, x_bar: float, t_bar: float, tol: float = 1e-8) -> tuple[float, float]:
        """(G, G_x) at a single point (x_bar, t_bar)."""
        x, t = _check_grid([x_bar], [t_bar])
        out, _, _ = self._march(x, t, tol, self._initial_data, self._rhs, RTOL, ATOL)
        p1, _, z = out[:, 0, 0].tolist()
        return z, p1

    def solve_grid(self, x_grid, t_grid, tol: float = 1e-8) -> SolutionField:
        """Solution field on the tensor grid x_grid x t_grid.

        x values must be strictly increasing inside [-1, 1]; t values
        nonnegative and strictly increasing.  The characteristics of all
        output times are transported in one stacked forward pass.
        """
        x, t = _check_grid(x_grid, t_grid)
        out, origins, stats = self._march(x, t, tol, self._initial_data, self._rhs, RTOL, ATOL)
        p1, p2, z = out
        return SolutionField(
            x=x, t=t, G=z, Gx=p1, origins=origins, p2=p2, rates=self.rates, g=self.g, stats=stats
        )

    def solve_difference_grid(self, x_grid, t_grid, steady, tol: float = 1e-8) -> np.ndarray:
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

        def rhs(s, _gv, d, w, k):
            gap = float(g.gap(s))
            # A is linear in 1/g, so A(g) - A(g_inf) = A_g(g) g gap / g_inf
            # with g = g_inf + gap; A_g vanishes whenever g_inf does.
            dA = k.A_g * (g_inf + gap) * gap / g_inf if k.A_g else 0.0
            xp = 1.0 + w
            gs, gsx = lookup(xp)
            src = w * ((dA * xp - k.B_g * gap) * gsx + k.C_g * gap * gs)
            return (w * k.C - k.c4) * d + src

        active = x != 1.0
        D = np.zeros((t.size, x.size))
        out, _, _ = self._march(
            x[active], t, tol, lambda x0: [h(x0) - steady(x0)], rhs, max(tol * 1e-2, 1e-12), 1e-280
        )
        D[:, active] = out[0]
        return D


def _value_and_slope(spline):
    """(value, slope) lookup of a cubic spline whose breakpoints are uniform.

    One index computation replaces the spline's interval search: i is
    clipped onto the end intervals, which extend their polynomials outward
    as the spline itself does, and Horner's rule on the coefficients
    c[:, i] in powers of r = x - x_i gives the value and the slope (de Boor,
    A Practical Guide to Splines).
    """
    knots, coef = spline.x, spline.c
    n = knots.size - 1
    lo, scale = knots[0], n / (knots[-1] - knots[0])

    def lookup(x):
        i = np.clip(np.floor((x - lo) * scale), 0, n - 1).astype(np.intp)
        r = x - knots[i]
        c0, c1, c2, c3 = coef[:, i]
        return ((c0 * r + c1) * r + c2) * r + c3, (3.0 * c0 * r + 2.0 * c1) * r + c2

    return lookup


# -- functional wrappers ---------------------------------------------------


def trace_back(x_bar: float, t_bar: float, rates: ProcessRates, g, tol: float = 1e-8) -> float:
    """Origin at t = 0 of the characteristic through (x_bar, t_bar)."""
    return CharacteristicSolver(rates, g=g, t_max=t_bar).trace_back(x_bar, t_bar, tol)


def solve_at(
    x_bar: float,
    t_bar: float,
    rates: ProcessRates,
    g,
    h: InitialCondition,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """(G, G_x) at one point, transporting data from the traced origin."""
    return CharacteristicSolver(rates, g=g, h=h, t_max=t_bar).solve_at(x_bar, t_bar, tol)


def solve_grid(x_grid, t_grid, rates: ProcessRates, h: InitialCondition, tol: float = 1e-8) -> SolutionField:
    """Solution field on a tensor grid; g is built from h'(1) internally."""
    t = np.asarray(t_grid, dtype=float)
    t_max = float(t[-1]) if t.size else 1.0
    solver = CharacteristicSolver(rates, h=h, t_max=t_max)
    return solver.solve_grid(x_grid, t_grid, tol)
