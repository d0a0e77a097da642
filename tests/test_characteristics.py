"""Characteristic transport: backward tracing, transported values, invariants.

The forward route used for cross-checks integrates the full four-variable
system literally, which is only stable over short horizons; the solver under
test must agree with it there.
"""

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from degreeflow import characteristics
from degreeflow.characteristics import CharacteristicSolver, solve_grid
from degreeflow.config import parse_config
from degreeflow.degree_ode import gf_eval, integrate
from degreeflow.errors import DomainError, IntegrationError, ValidationError
from degreeflow.initial import InitialCondition
from degreeflow.model import ProcessRates, coefficients, derive_riccati
from degreeflow.riccati import ClosedFormMoment
from degreeflow.steady import steady_from_rates
from pde_reference import deviation_by_dop853, evaluate_H

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)
FIG6 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1, n_d=1, n_r=0, n_p=0, m=3)
FIG7 = ProcessRates(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=0, m=3)
H_SQUARE = InitialCondition.polynomial([0, 0, 1])


def _g(g0=2.0):
    return ClosedFormMoment(derive_riccati(FIG2), g0)


def _solver(t):
    """A solver for FIG2 and h = x^2 (so g(0) = 2) whose dense flow is first built to max(t)."""
    return CharacteristicSolver(FIG2, H_SQUARE, t_max=np.max(t, initial=0.0))


def _march_stats(monkeypatch) -> list[dict]:
    """The stats of every march from here on, in call order."""
    seen = []
    real = CharacteristicSolver._march

    def counting(self, *args):
        out = real(self, *args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(CharacteristicSolver, "_march", counting)
    return seen


@dataclass(frozen=True)
class CharacteristicState:
    """Point on a characteristic curve: position x, (p1, p2, z) = (G_x, G_t, G)."""

    x: float
    p1: float
    p2: float
    z: float
    t: float = 0.0


def char_rhs(state, rates, g):
    """Time derivative of (x, p1, p2, z) along a characteristic curve.

    The literal four-variable system, written out independently of the
    solver: x is integrated, not placed through (L, psi), and g'(t) comes
    from the trajectory's own derivative.
    """
    gv = float(g(state.t))
    assert gv > 0.0 and math.isfinite(gv)
    gdot = float(g.derivative(state.t))
    x, p1, p2, z = state.x, state.p1, state.p2, state.z
    k = coefficients(rates, gv)
    hb = (x - 1.0) * k.C - k.c4
    src = rates.m * k.c4 * x ** (rates.m - 1) if rates.m > 0 else 0.0
    dx = -(x - 1.0) * (k.A * x - k.B)
    dp1 = (2.0 * k.A * x - k.A - k.B + hb) * p1 + k.C * z + src
    dp2 = (x - 1.0) * gdot * ((k.A_g * x - k.B_g) * p1 + k.C_g * z) + hb * p2
    dz = (1.0 - x) * (k.A * x - k.B) * p1 + p2
    return np.array([dx, dp1, dp2, dz])


def test_char_rhs_reference_point():
    # stationary moment, state (x, p1, p2, z) = (0, 0, 0, 1)
    g_inf = (-3.0 + 65.0**0.5) / 2.0
    g = _g(g_inf)
    state = CharacteristicState(x=0.0, p1=0.0, p2=0.0, z=1.0, t=0.0)
    dx, dp1, dp2, dz = char_rhs(state, FIG2, g)
    assert dx == pytest.approx(-(3.0 + g_inf), abs=1e-12)   # -B
    assert dp1 == pytest.approx(g_inf + 5.0, abs=1e-12)     # C at x = 0
    assert abs(dp2) < 1e-12
    assert dz == pytest.approx(0.0, abs=1e-14)


def test_trace_back_identity_at_zero_time():
    for x in (-1.0, -0.3, 0.42, 1.0):
        assert _solver(0.0).trace_back(x, 0.0) == x


def test_trace_back_fixes_one():
    for t in (0.5, 2.0, 5.0):
        assert _solver(t).trace_back(1.0, t) == 1.0


def test_trace_back_trapping():
    # origins never escape [-1, 1] up to roundoff
    rng = np.random.default_rng(42)
    for _ in range(200):
        x = rng.uniform(-1, 1)
        t = rng.uniform(0.01, 5.0)
        x0 = _solver(t).trace_back(float(x), float(t))
        assert -1.0 - 1e-9 <= x0 <= 1.0 + 1e-9


def test_trace_back_preserves_order():
    # characteristics cannot cross
    xs = np.linspace(-1, 1, 21)
    for t in (0.3, 1.7):
        x0 = np.array([_solver(t).trace_back(float(x), t) for x in xs])
        assert np.all(np.diff(x0) > 0)


def test_solve_at_normalization_point():
    g = _g()
    for t in (0.2, 0.7, 2.0):
        G, Gx = _solver(t).solve_at(1.0, t)
        assert G == 1.0
        assert Gx == pytest.approx(g(t), abs=1e-9)


def test_solve_at_zero_time_returns_initial_data():
    for x in (-0.8, 0.1, 0.9):
        G, Gx = _solver(0.0).solve_at(x, 0.0)
        assert G == pytest.approx(x * x, abs=1e-10)
        assert Gx == pytest.approx(2 * x, abs=1e-10)


def test_against_literal_forward_integration():
    """Transported values must match direct integration of the full system.

    Paths forward in time exit [-1, 1] unless started on a traced-back
    origin, so each case first locates the origin of its target point and
    then drives the full four-variable system forward from there.
    """
    g = _g()

    def forward(x0, t_end):
        q0 = [x0, H_SQUARE.derivative(x0),
              evaluate_H(H_SQUARE.derivative(x0), H_SQUARE(x0), x0, 0.0, FIG2, g),
              H_SQUARE(x0)]

        def rhs(t, y):
            return char_rhs(CharacteristicState(*y, t=t), FIG2, g)

        sol = solve_ivp(rhs, (0.0, t_end), q0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        assert sol.success
        return sol.y[:, -1]

    for x_target in (-0.8, -0.3, 0.4, 0.9):
        for t_end in (0.3, 1.0):
            x0 = _solver(t_end).trace_back(x_target, t_end)
            x_bar, p1_bar, _, z_bar = forward(x0, t_end)
            # raw-route roundtrip lands back on the target
            assert x_bar == pytest.approx(x_target, abs=1e-7)
            G, Gx = _solver(t_end).solve_at(float(x_bar), t_end)
            assert G == pytest.approx(z_bar, abs=1e-7)
            assert Gx == pytest.approx(p1_bar, abs=1e-6)


def _five_point(values, step):
    """4th-order central difference from the values at -2, -1, 1 and 2 steps, shape (n, 4)."""
    return values @ np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * step)


def test_transported_field_is_self_consistent():
    # the field checked against itself: the transported Gx against a
    # difference of G in x, and a difference of G in t against the PDE's
    # right-hand side H(Gx, G, x, t); every value comes from one batch.
    # Measured: 1.3e-10 and 1.1e-8; each bound is about 15 times that.  A
    # wrong z source (c4 x^(m-1) for c4 x^m) gives 0.25 and 0.84.
    xs, ts = (a.ravel() for a in np.meshgrid(np.linspace(-0.9, 0.9, 7), [0.25, 0.5, 1.0]))
    n, step = xs.size, 2e-3
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * step
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=1.0)
    G, Gx = solver.solve_at(
        np.concatenate([xs, (xs[:, None] + offsets).ravel(), np.repeat(xs, 4)]),
        np.concatenate([ts, np.repeat(ts, 4), (ts[:, None] + offsets).ravel()]),
    )
    G_x = _five_point(G[n : 5 * n].reshape(n, 4), step)
    G_t = _five_point(G[5 * n :].reshape(n, 4), step)
    H = np.array([evaluate_H(Gx[i], G[i], xs[i], ts[i], FIG2, solver.g) for i in range(n)])
    assert np.max(np.abs(Gx[:n] - G_x)) <= 2e-9
    assert np.max(np.abs(G_t - H)) <= 2e-7


def test_grid_shape_and_origins():
    xs = np.linspace(-1, 1, 9)
    ts = np.linspace(0, 0.8, 4)
    field = solve_grid(xs, ts, FIG2, H_SQUARE)
    assert field.G.shape == (4, 9)
    np.testing.assert_allclose(field.origins[0], xs, atol=1e-12)
    assert np.all(np.abs(field.origins) <= 1.0 + 1e-9)
    # initial row reproduces h
    np.testing.assert_allclose(field.G[0], xs**2, atol=1e-12)


def test_grid_validation():
    # one check guards every transport: grids, deviation grids and points
    ts = np.array([0.0, 0.5])
    bad = ((np.array([0.0, 1.5]), ts),
           (np.array([0.0, 0.5]), np.array([0.5, 0.0])),
           (np.array([0.0, 0.5]), np.array([-0.5, 0.5])))
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=0.5)
    steady = steady_from_rates(FIG2)
    for xs, bad_ts in bad:
        with pytest.raises(ValidationError):
            solve_grid(xs, bad_ts, FIG2, H_SQUARE)
        with pytest.raises(ValidationError):
            solver.solve_difference_grid(xs, bad_ts, steady)
    for x, t in ((1.5, 0.5), (0.0, -0.5)):
        with pytest.raises(ValidationError):
            _solver(t).solve_at(x, t)


def test_single_pass_rows_match_separate_solves():
    # a curve group retired at the wrong time, or a wrongly sliced stack,
    # would make a row of the single pass differ from a solve that stops
    # at that row's time
    xs = np.linspace(-1, 1, 21)
    ts = np.linspace(0, 1, 11)
    field = solve_grid(xs, ts, FIG2, H_SQUARE)
    for j, t in enumerate(ts[1:], start=1):
        alone = solve_grid(xs, [0.0, t], FIG2, H_SQUARE)
        np.testing.assert_allclose(field.G[j], alone.G[1], rtol=0, atol=1e-8)
        np.testing.assert_allclose(field.Gx[j], alone.Gx[1], rtol=0, atol=1e-8)


def test_difference_rows_match_separate_solves():
    steady = steady_from_rates(FIG2)
    xs = np.linspace(-1, 1, 21)
    ts = np.linspace(0, 0.5, 6)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=float(ts[-1]))
    D = solver.solve_difference_grid(xs, ts, steady)
    for j, t in enumerate(ts[1:], start=1):
        row = solver.solve_difference_grid(xs, [t], steady)[0]
        assert np.max(np.abs(D[j] - row)) <= 1e-6 * np.max(np.abs(row))


def test_difference_grid_rhs_evaluation_budget(monkeypatch):
    # a source with kinks in x (piecewise-linear lookups of G* and G*')
    # forces tiny steps on every curve that crosses a kink; the smooth
    # spline source needs 336 march node evaluations here and 332 rhs
    # evaluations of the (L, psi) flow, the kinked one over 8 million node
    # evaluations.  Counts the march and the flow.
    seen = _march_stats(monkeypatch)
    solver = CharacteristicSolver(FIG2, h=InitialCondition.geometric(3.0), t_max=1.0)
    solver.solve_difference_grid(np.linspace(-1, 1, 21), np.linspace(0, 1, 11), steady_from_rates(FIG2))
    (stats,) = seen
    assert stats["node_evals"] + stats["flow_rhs_evals"] <= 3000


def test_difference_grid_matches_subtraction_early():
    # while the plain difference is still well above roundoff the direct
    # transport of G - G_star must agree with it
    steady = steady_from_rates(FIG2)
    xs = np.linspace(-1, 1, 21)
    ts = np.array([0.0, 0.25, 0.5])
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=float(ts[-1]))
    D = solver.solve_difference_grid(xs, ts, steady)
    field = solve_grid(xs, ts, FIG2, H_SQUARE)
    plain = field.G - steady(xs)[None, :]
    assert np.max(np.abs(D - plain)) < 1e-6
    # the difference vanishes identically at x = 1
    np.testing.assert_allclose(D[:, -1], 0.0, atol=1e-30)


def test_solve_at_matches_oracle_at_seeded_points():
    # the origins come from the dense (L, psi) flow while the march carries
    # its own (L, psi); a mismatch between the two would move the curve off
    # the traced point and show here
    rng = np.random.default_rng(20)
    xs = rng.uniform(-1.0, 1.0, 20)
    ts = rng.uniform(0.0, 5.0, 20)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    traj = integrate(H_SQUARE.coefficients(200), FIG2, 5.0, tol=1e-12)
    for x, t in zip(xs.tolist(), ts.tolist()):
        G, _ = solver.solve_at(x, t)
        assert abs(G - gf_eval(traj.at(t), x)) <= 1e-8, (x, t)


def test_late_time_values_match_the_oracle():
    # past t ~ 8 on FIG2 the origin offset e^L / (vbar - psi) is below eps:
    # kept as x0 - 1 it rounded away and the curve stuck at x = 1 (G = 1)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=12.0)
    traj = integrate(H_SQUARE.coefficients(200), FIG2, 12.0, tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (8.0, 10.0, 12.0):
            G, _ = solver.solve_at(0.5, t)
            assert abs(G - gf_eval(traj.at(t), 0.5)) <= 1e-8, t


def test_offsets_below_the_double_range_are_a_domain_error():
    # on FIG2 e^L(t), and with it every origin offset, leaves the normal
    # double range near t = 211; until then G(0.5, t) has settled on G*(0.5)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=250.0)
    G, _ = solver.solve_at(0.5, 200.0)
    assert abs(G - steady_from_rates(FIG2)(0.5)) <= 1e-8
    for query in (solver.solve_at, solver.trace_back):
        with pytest.raises(DomainError, match="normal double range"):
            query(0.5, 250.0)


def test_segments_start_from_the_previous_step():
    # each segment of the march starts from the step size the previous one
    # handed on instead of guessing its first step anew: 1,414 node
    # evaluations here, against 2,100 when each segment first tries its own
    # length; the dense (L, psi) flow is not counted
    field = solve_grid(np.linspace(-1, 1, 41), np.linspace(0, 5, 51), FIG2, H_SQUARE)
    assert field.stats["segments"] == 50 and field.stats["node_evals"] <= 1700


def test_grid_stats_count_the_transport(monkeypatch):
    # stats count 14 node evaluations for each evaluation of the
    # coefficients on an array of node times, one per step attempt and one
    # per probe of the first step, and the accepted steps; the dense flow
    # behind the backward trace is the one solve_ivp call, with dense
    # output, and is counted apart.  A first segment of 0.2 is within
    # FIG2's time scale of 0.4 and is tried whole; one of 1 is probed first.
    flows, attempts = [], [0]
    real_ivp, real_coefficients = characteristics.solve_ivp, characteristics.coefficients

    def counting_ivp(*args, **kwargs):
        sol = real_ivp(*args, **kwargs)
        flows.append(sol)
        return sol

    def counting_coefficients(rates, g):
        attempts[0] += np.ndim(g) > 0
        return real_coefficients(rates, g)

    monkeypatch.setattr(characteristics, "solve_ivp", counting_ivp)
    monkeypatch.setattr(characteristics, "coefficients", counting_coefficients)
    for ts in (np.linspace(0, 1, 6), np.array([0.0, 1.0])):
        flows.clear()
        attempts[0] = 0
        field = solve_grid(np.linspace(-1, 1, 11), ts, FIG2, H_SQUARE)
        steps = field.stats["steps"]
        assert field.stats == {"node_evals": 14 * attempts[0], "steps": steps, "segments": ts.size - 1,
                               "flow_rhs_evals": flows[0].nfev}
        assert ts.size - 1 <= steps <= attempts[0]
        assert len(flows) == 1 and flows[0].sol is not None


def test_batched_points_match_per_point_queries(monkeypatch):
    # 100 scattered points in one call: one trace, one march that retires
    # each curve at its own time
    rng = np.random.default_rng(11)
    xs, ts = rng.uniform(-1.0, 1.0, 100), rng.uniform(0.05, 5.0, 100)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    seen = _march_stats(monkeypatch)
    G, Gx = solver.solve_at(xs, ts)
    # 1,848 node evaluations and 377 for the flow, against 14,168 node
    # evaluations for the 100 queries one by one
    (stats,) = seen
    assert stats["node_evals"] + stats["flow_rhs_evals"] <= 5000
    assert G.shape == Gx.shape == (100,)
    alone = np.array([solver.solve_at(x, t) for x, t in zip(xs.tolist(), ts.tolist())])
    np.testing.assert_allclose(G, alone[:, 0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(Gx, alone[:, 1], rtol=0, atol=1e-7)
    traj = integrate(H_SQUARE.coefficients(200), FIG2, 5.0, tol=1e-12)
    oracle = np.array([gf_eval(traj.at(t), x) for x, t in zip(xs.tolist(), ts.tolist())])
    np.testing.assert_allclose(G, oracle, rtol=0, atol=1e-8)
    # origins come back in the order of the pairs, and scalars stay floats
    origins = solver.trace_back(xs, ts)
    assert origins.shape == (100,)
    assert origins[7] == solver.trace_back(float(xs[7]), float(ts[7]))
    assert all(type(v) is float for v in (*solver.solve_at(0.3, 0.5), solver.trace_back(0.3, 0.5)))


def test_point_validation():
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=1.0)
    bad = (([0.1, 0.2], [0.5]), (0.1, [0.5]), ([[0.1]], [[0.5]]), ([], []),
           ([0.1, 1.5], [0.5, 0.5]), ([0.1, math.nan], [0.5, 0.5]),
           ([0.1, 0.2], [0.5, math.inf]), ([0.1, 0.2], [0.5, math.nan]), ([0.1, 0.2], [0.5, -0.1]))
    for x, t in bad:
        for query in (solver.solve_at, solver.trace_back):
            with pytest.raises(ValidationError):
                query(x, t)
    with pytest.raises(ValidationError):
        _solver([0.5]).solve_at([0.1, 0.2], [0.5])
    with pytest.raises(ValidationError):
        _solver([0.5, -1.0]).trace_back([0.1, 0.2], [0.5, -1.0])


def test_an_initial_condition_is_required():
    # g is always built from h'(1); a caller's trajectory in h's place, as
    # in the removed (rates, g) call, or no h at all is invalid input
    for h in (_g(), None, 2.0):
        with pytest.raises(ValidationError, match="InitialCondition"):
            CharacteristicSolver(FIG2, h)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_the_horizon_hint_must_be_finite(t_max):
    # an infinite hint had the dense flow integrate without end, and NaN
    # ended in a DomainError about the first moment
    with pytest.raises(ValidationError, match="t_max"):
        CharacteristicSolver(FIG2, InitialCondition.polynomial([0.0, 0.0, 1.0]), t_max=t_max)


@pytest.mark.parametrize("g0", [0.0, -1.0, math.nan])
def test_nonpositive_initial_moment_is_a_domain_error(g0):
    # a trajectory built directly checks its g0; unchecked, g0 = 0 divided
    # by zero inside the dense flow.  The solver builds its g from h'(1),
    # so h = 1 (everything at degree 0) reaches the same check.
    with pytest.raises(DomainError):
        ClosedFormMoment(derive_riccati(FIG2), g0)
    with pytest.raises(DomainError):
        CharacteristicSolver(FIG2, InitialCondition.polynomial([1.0])).solve_at(0.3, 0.5)


@pytest.mark.parametrize("l_p, g0, fails", [
    (1.0, 1e-160, True),  # g^2 is subnormal, so wsum / g^2 overflows
    (5.0, 1.5e-154, True),  # g^2 is normal, wsum / g^2 still overflows
    (5.0, 1e-150, True),  # every coefficient is finite; DOP853's error norm overflows
    (5.0, 1e-140, False),
])
def test_a_first_moment_too_small_for_the_flow_is_a_degreeflow_error(l_p, g0, fails):
    # A = wsum / g: with a first moment this small, the dense flow behind
    # the trace used to end in a raw overflow warning from numpy
    solver = CharacteristicSolver(ProcessRates(l_p=l_p), InitialCondition.polynomial([1.0 - g0, g0]))
    if fails:
        with pytest.raises((DomainError, IntegrationError)):
            solver.solve_at(0.5, 0.5)
    else:
        assert all(map(math.isfinite, solver.solve_at(0.5, 0.5)))


def test_trace_reads_the_dense_flow_as_scipy_does(monkeypatch):
    # the trace sums DOP853's interpolating polynomial itself; scipy's own
    # call is the reference, to the last bit, on random times, on every
    # breakpoint and just past the end, inside the horizon's 1e-12 slack
    sols = []
    real_ivp = characteristics.solve_ivp

    def keeping(*args, **kwargs):
        sols.append(real_ivp(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(characteristics, "solve_ivp", keeping)
    flow = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)._ensure(5.0)
    (sol,) = sols
    ts = np.concatenate([np.random.default_rng(5).uniform(0.0, 5.0, 500), sol.sol.ts, [5.0 * (1.0 + 1e-13)]])
    for t in ts.tolist():
        L, psi = sol.sol(t).tolist()
        assert flow(t) == (math.exp(L), psi)


def test_spline_lookup_matches_cubic_spline():
    # one truncated index replaces the spline's interval search: values and
    # slopes agree with CubicSpline on random points, on every mesh node and
    # at both ends of the mesh, where the cap picks the last interval
    xs = np.linspace(-1.0 - 2e-3, 1.0, 4097)
    spline = CubicSpline(xs, steady_from_rates(FIG2)(xs))
    lookup = characteristics._value_and_slope(spline)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(xs[0], xs[-1], 2000), xs, [-1.0 - 2e-3, 1.0]])
    value, slope = lookup(pts)
    np.testing.assert_allclose(value, spline(pts), rtol=0, atol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(slope, spline.derivative()(pts), rtol=8 * np.finfo(float).eps,
                               atol=8 * np.finfo(float).eps)


def test_one_point_difference_grid_matches_the_wide_grid():
    # a one-point x grid marches its curve alone, through the deviation rows
    # and the spline lookup, and takes its own steps; the wide grid marches
    # the same curve among twenty others.  Measured: 2.6e-13.
    steady = steady_from_rates(FIG2)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=0.5)
    xs, ts = np.linspace(-1, 1, 21), [0.0, 0.5]
    D = solver.solve_difference_grid(xs, ts, steady)
    for j in (0, 3, 10, 17, 20):
        alone = solver.solve_difference_grid(xs[j : j + 1], ts, steady)
        np.testing.assert_allclose(alone[:, 0], D[:, j], rtol=0, atol=1e-12)


def test_single_point_march_keeps_its_rhs_evaluation_count(monkeypatch):
    # the node evaluations and steps of one-point marches, pinned: one
    # curve takes the same path as many, and a change to the rules or the
    # step control shows here
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    seen = _march_stats(monkeypatch)
    for x, t in [(-0.9, 0.3), (-0.4, 1.7), (0.2, 4.6), (0.7, 0.05), (0.95, 2.5), (1.0, 3.0)]:
        solver.solve_at(x, t)
    # the probe's 3 attempts count in the second query, the first past
    # FIG2's time scale of 0.4
    assert [st["node_evals"] for st in seen] == [84, 168, 196, 14, 98, 98]
    assert [st["steps"] for st in seen] == [4, 8, 12, 1, 6, 7]


_RATE_NAMES = ("omega_r", "omega_p", "l_d", "l_r", "l_p", "n_d", "n_r", "n_p")


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e3])
def test_a_query_does_not_depend_on_earlier_queries(monkeypatch, scale):
    # the first step comes from the rates and h alone, so a point gives the
    # same bits on a fresh solver as after queries earlier and later in t.
    # All rates times 1e-4 or 1e3, with the times scaled the other way, is
    # FIG2 on another clock: the probe starts from the flow's own time scale
    # and takes the same steps there, where one started from a fixed step
    # would add some.  The bound is the 132 attempts of a march whose first
    # step tries the whole first segment; 91 measured.
    rates = ProcessRates(**{name: scale * getattr(FIG2, name) for name in _RATE_NAMES}, m=FIG2.m)
    points = [(x, t / scale) for x, t in [(-0.9, 0.3), (-0.4, 1.7), (0.2, 4.6), (0.7, 0.05), (0.95, 2.5), (1.0, 3.0)]]
    fresh = {p: CharacteristicSolver(rates, h=H_SQUARE, t_max=5.0 / scale).solve_at(*p) for p in points}
    solver = CharacteristicSolver(rates, h=H_SQUARE, t_max=5.0 / scale)
    seen = _march_stats(monkeypatch)
    for order in (points, points[::-1]):
        assert [solver.solve_at(*p) for p in order] == [fresh[p] for p in order]
    assert sum(st["node_evals"] for st in seen) <= 14 * 132


def test_without_rates_the_first_step_is_the_first_segment(monkeypatch):
    # no rate, no time scale and no probe: one step to t = 2, as before,
    # and G = h, G_x = h' stay put
    solver = CharacteristicSolver(ProcessRates(), h=H_SQUARE)
    seen = _march_stats(monkeypatch)
    np.testing.assert_allclose(solver.solve_at(0.3, 2.0), (0.09, 0.6), rtol=1e-15)
    assert seen[0]["node_evals"] == 14 and seen[0]["steps"] == 1


def test_one_moment_evaluation_per_rhs_call(monkeypatch):
    # the march evaluates g once per step attempt, on the array of its 14
    # node times, and the dense flow once per rhs call; the example grid's
    # transport and its dense flow are counted together, and the initial
    # data add one call for H at t = 0
    cfg = parse_config(Path(__file__).resolve().parents[1] / "perfbench" / "example.ini")
    calls = [0]
    real_call = ClosedFormMoment.__call__

    def counting_call(self, t):
        calls[0] += 1
        return real_call(self, t)

    monkeypatch.setattr(ClosedFormMoment, "__call__", counting_call)
    stats = solve_grid(cfg.x_grid(), cfg.t_grid(), cfg.rates, cfg.initial()).stats
    assert 0 < calls[0] <= stats["node_evals"] // 14 + stats["flow_rhs_evals"] + 1


def test_linear_rows_are_exact_on_constant_coefficients():
    # y' = a y + f with constant a and f is y0 e^{at} + f (e^{at} - 1) / a,
    # which the quadrature reproduces to rounding over steps and segments.
    # Link deletion and uniform link addition alone give coefficients
    # that do not depend on g, B = l_d and C = 2 l_r with A = c4 = 0, and
    # the closed form G = h(x0) exp(C (x0 - 1)(e^{l_d t} - 1) / l_d) with
    # x0 = 1 + (x - 1) e^{-l_d t}.  Measured: 3.3e-16, 4.2e-16 and 1.3e-15.
    eps = np.finfo(float).eps
    xs, ts = np.linspace(-1, 1, 9), np.array([0.0, 0.3, 1.0, 2.5, 4.0])
    a, f = -1.3, 0.7

    def rows(s, w, k):
        yield np.full_like(w, a), np.full_like(w, f)

    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=4.0)
    x, t = np.tile(xs, ts.size), np.repeat(ts, xs.size)
    data, origins, _ = solver._march(x, t, lambda x0: [1.0 + x0], rows, characteristics.RTOL, characteristics.ATOL)
    exact = np.exp(a * t) * (1.0 + origins) + f * np.expm1(a * t) / a
    assert np.max(np.abs(data[0] - exact)) <= 4 * eps

    rates, h = ProcessRates(l_d=0.7, l_r=1.3), InitialCondition.polynomial([0.2, 0.3, 0.5])
    field = solve_grid(xs, ts, rates, h)
    e = np.exp(-rates.l_d * ts)[:, None]
    x0 = 1.0 + (xs - 1.0) * e
    kappa = 2.0 * rates.l_r * (1.0 / e - 1.0) / rates.l_d
    G = h(x0) * np.exp(kappa * (x0 - 1.0))
    Gx = e * (h.derivative(x0) + kappa * h(x0)) * np.exp(kappa * (x0 - 1.0))
    assert np.max(np.abs(field.G - G)) <= 4 * eps
    assert np.max(np.abs(field.Gx - Gx)) <= 8 * eps * np.max(np.abs(Gx))


@pytest.mark.parametrize(("rates", "h", "bound"), [
    (FIG2, InitialCondition.geometric(3.0), 4e-8),
    (FIG7, InitialCondition.polynomial([0, 1]), 1.3e-10),
    (FIG7, H_SQUARE, 1e-12),
    (FIG6, InitialCondition.geometric(3.0), 0.0),
], ids=["fig2", "fig7-x", "fig7-x2", "fig6"])
def test_decay_grids_match_a_tight_dop853_reference(rates, h, bound):
    # the four decay grids, 41 x 51 to t = 5, against DOP853 at rtol 1e-13
    # from the same traced origins, row by row relative to the row's
    # largest |D|.  Measured: 3.8e-9, 6.4e-11, 3.5e-14 and 0.  The DOP853
    # march at rtol 1e-10 that the quadrature replaced was 9.7e-7, 1.3e-10,
    # 1.8e-11 and 0 away.  On FIG6 a = f = 0 along every curve.
    xs, ts = np.linspace(-1, 1, 41), np.linspace(0, 5, 51)
    steady = steady_from_rates(rates)
    solver = CharacteristicSolver(rates, h=h, t_max=5.0)
    D = solver.solve_difference_grid(xs, ts, steady)
    ref = deviation_by_dop853(solver, xs, ts, steady, rtol=1e-13)
    # a row whose reference is 0 throughout, FIG7's last with h = x^2, is
    # compared absolutely
    scale = np.max(np.abs(ref), axis=1)
    rel = np.max(np.abs(D - ref), axis=1) / np.where(scale > 0.0, scale, 1.0)
    assert np.max(rel) <= bound


def test_normalization_holds_to_the_last_bit():
    # at x = 1 the G row's source hb + c4 x^m is exactly -c4 + c4 = 0 and
    # u = G - 1 starts at h(1) - 1 = 0, so G(1, t) = 1 holds with no
    # rounding at all, on every output time, for every rate set
    xs, ts = np.linspace(-1, 1, 11), np.linspace(0, 5, 26)
    for rates in (FIG2, FIG6, FIG7):
        for h in (H_SQUARE, InitialCondition.geometric(3.0)):
            field = solve_grid(xs, ts, rates, h)
            assert np.all(field.G[:, -1] == 1.0)
            np.testing.assert_allclose(field.Gx[:, -1], field.g(ts), rtol=1e-8)
    solver = CharacteristicSolver(FIG7, h=H_SQUARE, t_max=5.0)
    G, _ = solver.solve_at(np.array([1.0, 0.3, 1.0]), np.array([0.7, 2.0, 4.9]))
    assert G[0] == G[2] == 1.0


def test_a_step_below_ten_ulp_is_an_integration_error():
    # a row whose source turns non-finite past s = 0.5 rejects every step
    # with a node there; the march stops with IntegrationError once the
    # step falls below 10 ulp of s instead of shrinking without end.  The
    # nodes are interior, so the last accepted step may end just past 0.5.
    def rows(s, w, k):
        yield np.zeros_like(w), np.where(s > 0.5, np.nan, 0.0) + w

    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=1.0)
    with pytest.raises(IntegrationError, match="below 10 ulp") as info:
        solver._march(np.array([0.3]), np.array([1.0]), lambda x0: [x0], rows,
                      characteristics.RTOL, characteristics.ATOL)
    s = float(str(info.value).split("t = ")[1].split(":")[0])
    assert abs(s - 0.5) <= 1e-13
