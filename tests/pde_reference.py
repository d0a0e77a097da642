"""The generating-function PDE written out literally, as the tests' reference.

G_t = H(G_x, G, x, t) with

    H(a, b, c, d) = (c-1)(A c - B) a + ((c-1) C - c4) b + c4 c^m,

A, B, C and c4 taken at the first moment g(d).  The solver never evaluates
H; the tests compare its transported values against it.  The deviation
transport has a DOP853 reference of its own.
"""

import numpy as np

from degreeflow.model import ProcessRates, coefficients


def evaluate_H(a, b, c, d, rates: ProcessRates, g):
    """H(a, b, c, d) with the slots standing for G_x, G, x and t; g is the first-moment trajectory."""
    k = coefficients(rates, float(g(d)))
    return (c - 1.0) * (c * k.A - k.B) * a + ((c - 1.0) * k.C - k.c4) * b + k.c4 * c**rates.m


def deviation_by_dop853(solver, xs, ts, steady, rtol: float) -> np.ndarray:
    """D = G - G* on the tensor grid xs x ts by DOP853 at ``rtol``, from the solver's traced origins.

    The march as it stood before the exponential quadrature: the curves
    are stacked after (L, psi) in one state, placed at x - 1 = w0 / (e^L +
    psi w0) and integrated with solve_ivp segment by segment between the
    times, retired at their own.  D' = ((x-1) C - c4) D + S with the
    deviation source S, whose G* and G*' come from the same cubic spline as
    the solver's.  Data keep the absolute tolerance 1e-280 and (L, psi)
    the flow's ``ATOL``.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    from degreeflow.characteristics import ATOL, _value_and_slope

    rates, g = solver.rates, solver.g
    g_inf = g.equilibrium
    xs_tab = np.linspace(-1.0 - 2e-3, 1.0, 4097)
    lookup = _value_and_slope(CubicSpline(xs_tab, steady(xs_tab)))
    active = xs != 1.0
    x, t = np.tile(xs[active], ts.size), np.repeat(ts, int(active.sum()))
    origins, w0 = solver._trace_back_many(x, t)
    D = solver.h(origins) - steady(origins)

    def rhs(s, q, w0):
        k = coefficients(rates, g(s))
        w = w0 / (np.exp(q[0]) + q[1] * w0)
        gap = g.gap(s)
        dA = k.A_g * (g_inf + gap) * gap / g_inf if g_inf else 0.0
        gs, gsx = lookup(1.0 + w)
        src = w * ((dA * (1.0 + w) - k.B_g * gap) * gsx + k.C_g * gap * gs)
        return np.concatenate(([k.A - k.B, (k.A - k.B) * q[1] + k.A], (w * k.C - k.c4) * q[2:] + src))

    lpsi, t_prev = np.zeros(2), 0.0
    lo = int(np.searchsorted(t, 0.0, side="right"))
    for tj in np.unique(t[lo:]).tolist():
        sol = solve_ivp(rhs, (t_prev, tj), np.concatenate((lpsi, D[lo:])), method="DOP853", args=(w0[lo:],),
                        rtol=rtol, atol=np.concatenate(([ATOL, ATOL], np.full(D.size - lo, 1e-280))))
        assert sol.success, sol.message
        lpsi, D[lo:] = sol.y[:2, -1], sol.y[2:, -1]
        t_prev, lo = tj, int(np.searchsorted(t, tj, side="right"))
    out = np.zeros((ts.size, xs.size))
    out[:, active] = D.reshape(ts.size, -1)
    return out
