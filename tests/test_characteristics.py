"""Characteristic transport: backward tracing, transported values, invariants.

The forward route used for cross-checks integrates the full four-variable
system literally, which is only stable over short horizons; the solver under
test must agree with it there.
"""

import math
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from degreeflow import characteristics
from degreeflow.analysis import decay_norms, diff_norms
from degreeflow.characteristics import CharacteristicSolver, solve_grid
from degreeflow.config import parse_config
from degreeflow.degree_ode import gf_eval, integrate
from degreeflow.errors import AccuracyError, DomainError, IntegrationError, ValidationError
from degreeflow.initial import InitialCondition
from degreeflow.model import ProcessRates, coefficients, derive_riccati
from degreeflow.riccati import ClosedFormMoment
from degreeflow.steady import SteadyCaseTag, steady_from_rates
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
    # x = 1 answers at every time.  From t of about 223 on FIG2 e^L
    # underflows to 0, where w0 / (e^L + psi w0) is 0 / 0 on the curve
    # x = 1 and the march must keep its offset 0.  Measured: G_x within
    # 5.1e-15 of g(t), relative, on these times.
    g = _g()
    for t in (0.2, 0.7, 2.0, 223.0, 300.0, 1000.0):
        G, Gx = _solver(t).solve_at(1.0, t)
        assert G == 1.0
        assert Gx == pytest.approx(g(t), rel=1e-13)
    field = solve_grid([1.0], [0.0, 230.0], FIG2, H_SQUARE)
    assert np.all(field.G == 1.0)
    np.testing.assert_allclose(field.Gx[:, 0], g(field.t), rtol=1e-13)


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
    origins = CharacteristicSolver(FIG2, h=H_SQUARE).trace_back(np.tile(xs, ts.size), np.repeat(ts, xs.size))
    np.testing.assert_allclose(origins[:xs.size], xs, atol=1e-12)
    assert np.all(np.abs(origins) <= 1.0 + 1e-9)
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


def test_difference_grid_rhs_evaluation_budget():
    # a source with kinks in x (piecewise-linear lookups of G* and G*')
    # forces tiny steps on every curve that crosses a kink; the smooth
    # spline source needs 336 march node evaluations here and 332 rhs
    # evaluations of the (L, psi) flow, the kinked one over 8 million node
    # evaluations.  Counts the march and the flow.
    solver = CharacteristicSolver(FIG2, h=InitialCondition.geometric(3.0), t_max=1.0)
    solver.solve_difference_grid(np.linspace(-1, 1, 21), np.linspace(0, 1, 11), steady_from_rates(FIG2))
    stats = solver.stats
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
    # stats count an attempt, and 14 node evaluations, for each evaluation
    # of the coefficients on an array of node times, one per step attempt
    # and one per probe of the first step, and the accepted steps; the dense flow
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
        assert field.stats == {"attempts": attempts[0], "node_evals": 14 * attempts[0], "steps": steps,
                               "segments": ts.size - 1, "flow_rhs_evals": flows[0].nfev}
        assert ts.size - 1 <= steps <= attempts[0]
        assert len(flows) == 1 and flows[0].sol is not None


def test_batched_points_match_per_point_queries():
    # 100 scattered points in one call: one trace, one march that retires
    # each curve at its own time
    rng = np.random.default_rng(11)
    xs, ts = rng.uniform(-1.0, 1.0, 100), rng.uniform(0.05, 5.0, 100)
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    G, Gx = solver.solve_at(xs, ts)
    # 1,176 node evaluations and 377 for the flow (1,848 when every step was
    # cut at the next time), against 14,168 node evaluations for the 100
    # queries one by one
    stats = solver.stats
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


# seeded pairs with the edges of the domain: x = -1, 1 and 1 -/+ 1e-12 (clamped
# onto 1), t = 0 and t = 1e-300
PARITY_PAIRS = [(x, t) for x in (-1.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.3) for t in (0.0, 1e-300, 2.5)]
PARITY_PAIRS += list(zip(np.random.default_rng(21).uniform(-1.0, 1.0, 10).tolist(),
                         np.random.default_rng(22).uniform(0.0, 5.0, 10).tolist()))


@pytest.mark.parametrize("query", ["trace_back", "solve_at"])
def test_a_scalar_pair_gives_the_bits_of_a_one_element_array(query):
    # a pair of numbers, of any type numpy reads as 0-d, is checked and
    # traced on floats; it must give the bits of the same pair as 1-element
    # arrays, which take numpy's path
    solver = _solver(5.0)
    for x, t in PARITY_PAIRS:
        for pair in ((x, t), (np.float64(x), np.float64(t)), (np.array(x), np.array(t)), (Fraction(x), Decimal(t))):
            scalar = getattr(solver, query)(*pair)
            values = scalar if isinstance(scalar, tuple) else (scalar,)
            assert all(type(v) is float for v in values)
            array = getattr(solver, query)(np.array([x]), np.array([t]))
            assert np.array(values).tobytes() == np.ravel(array).tobytes(), (x, t)


def test_a_scalar_solve_at_traces_on_floats(monkeypatch):
    # a pair of numbers is traced by _trace_back_one; the array trace,
    # whose numpy set-up costs more than the float arithmetic of one curve,
    # is never reached, at t = 0 or past it
    solver = _solver(5.0)
    expected = [solver.solve_at(np.array([x]), np.array([t])) for x, t in PARITY_PAIRS]

    def refuse(*args):
        raise AssertionError("a scalar solve_at called _trace_back_many")

    monkeypatch.setattr(CharacteristicSolver, "_trace_back_many", refuse)
    for (x, t), (G, Gx) in zip(PARITY_PAIRS, expected):
        assert solver.solve_at(x, t) == (float(G[0]), float(Gx[0])), (x, t)


def test_a_scalar_solve_at_reads_its_initial_data_on_floats(monkeypatch):
    # the one origin of a pair of numbers is evaluated on InitialCondition's
    # float path; numpy's polyval, which the array path runs, is never reached
    solver = _solver(5.0)
    expected = [solver.solve_at(np.array([x]), np.array([t])) for x, t in PARITY_PAIRS]

    def refuse(*args):
        raise AssertionError("a scalar solve_at called numpy's polyval")

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", refuse)
    for (x, t), (G, Gx) in zip(PARITY_PAIRS, expected):
        assert solver.solve_at(x, t) == (float(G[0]), float(Gx[0])), (x, t)


def test_a_lone_curve_keeps_the_march_tolerance():
    # one curve past t = 0 steps with the 16- and 14-node rules, and far
    # longer steps than many curves take; its answers stay within the
    # march's RTOL of the same one-curve march at rtol 1e-14.  Measured:
    # 9.2e-12 in G and 1.4e-10 in G_x.
    solver = _solver(5.0)
    for x, t in PARITY_PAIRS:
        G, Gx = solver.solve_at(x, t)
        x0, w0 = solver._trace_back_one(x, t)
        tight, _ = solver._march(np.array([x0]), np.array([w0]), np.array([t]), solver._initial_data, solver._rows,
                                 1e-14, characteristics.ATOL)
        for v, ref in ((G, 1.0 + tight[0, 0]), (Gx, tight[1, 0])):
            assert abs(v - ref) <= characteristics.RTOL * max(1.0, abs(ref)), (x, t)


def test_a_late_query_on_x_1_takes_long_steps():
    # on x = 1 the coefficients settle to constants after t of about 5,
    # and the step is limited by h |A - B| alone: the 16- and 14-node rules
    # of a lone curve take 51 steps to t = 230, where the 8- and 6-node
    # rules took 347 of about 0.66
    assert solve_grid([1.0], [0.0, 230.0], FIG2, H_SQUARE).stats["steps"] <= 60


def _escaping_flow(t):
    """A flow (e^L, psi) = (10, 0) whose traced origins fall far below x = -1."""
    return lambda s: (10.0, 0.0)


@pytest.mark.parametrize(("x", "t", "error", "flow"), [
    (0.5, math.nan, ValidationError, None),
    (0.5, -0.1, ValidationError, None),
    (0.5, math.inf, ValidationError, None),
    (1.0 + 2e-12, 0.5, ValidationError, None),
    (-1.0 - 2e-12, 0.5, ValidationError, None),
    (math.nan, 0.5, ValidationError, None),
    (None, 0.5, ValidationError, None),  # read as nan
    (0.5, 300.0, DomainError, None),
    (0.0, 1.0, AccuracyError, _escaping_flow),
])
def test_a_scalar_pair_raises_as_a_one_element_array(monkeypatch, x, t, error, flow):
    solver = CharacteristicSolver(FIG2, H_SQUARE)
    if flow is not None:
        monkeypatch.setattr(solver, "_ensure", flow)
    for query in (solver.trace_back, solver.solve_at):
        with pytest.raises(error) as scalar:
            query(x, t)
        with pytest.raises(error) as array:
            query(np.array([x]), np.array([t]))
        assert str(scalar.value) == str(array.value)


def test_a_grid_traced_together_gives_the_bits_of_each_pair_alone():
    # _trace_back_many reads the flow once per distinct time and gathers it
    # onto the pairs, here a shuffled tensor grid with t = 0 among its times
    solver = _solver(5.0)
    x, t = characteristics._pairs(np.linspace(-1.0, 1.0, 41), np.linspace(0.0, 5.0, 51))
    order = np.random.default_rng(8).permutation(x.size)
    x, t = x[order], t[order]
    x0, w0 = solver._trace_back_many(x, t)
    for k, pair in enumerate(zip(x.tolist(), t.tolist())):
        assert np.array(solver._trace_back_one(*pair)).tobytes() == np.array([x0[k], w0[k]]).tobytes(), pair


def _raised(trace, *pair):
    """The message of the error that trace(*pair) raises, or None."""
    try:
        trace(*pair)
    except (AccuracyError, DomainError) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(("times", "flow"), [((0.5, 300.0, 0.5, 300.0), None), ((1.0, 2.0, 1.0), _escaping_flow)],
                         ids=["lost", "escaped"])
def test_a_grid_traced_together_raises_as_its_pair_alone(monkeypatch, times, flow):
    # among repeated times, the pair the grid names in its error (the first
    # lost offset; the lowest origin, first among equals) raises the same
    # message traced alone
    solver = CharacteristicSolver(FIG2, H_SQUARE)
    if flow is not None:
        monkeypatch.setattr(solver, "_ensure", flow)
    x, t = characteristics._pairs(np.array([0.0, -0.5, 0.3, 0.9]), np.array(times))
    message = _raised(solver._trace_back_many, x, t)
    alone = [_raised(solver._trace_back_one, *pair) for pair in zip(x.tolist(), t.tolist())]
    if flow is None:
        named = next(k for k, m in enumerate(alone) if m is not None)
    else:
        named = int(np.argmin(x))
    assert message is not None and message == alone[named]
    assert f"({float(x[named])!r}, {float(t[named])!r})" in message


def test_a_difference_grid_needs_a_profile_and_a_finite_equilibrium():
    xs, ts = np.linspace(-1, 1, 5), np.linspace(0, 1, 3)
    solver = CharacteristicSolver(FIG2, H_SQUARE)
    with pytest.raises(ValidationError, match="steady must be a callable"):
        solver.solve_difference_grid(xs, ts, 1.0)
    # link addition alone: the first moment grows without bound
    growth = CharacteristicSolver(ProcessRates(l_r=1.0), H_SQUARE)
    with pytest.raises(DomainError, match="no finite moment equilibrium"):
        growth.solve_difference_grid(xs, ts, steady_from_rates(FIG2))


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


def test_spline_lookup_is_horner_on_the_spline_coefficients():
    # each coefficient row is gathered once and rows 0 and 2 feed both value
    # and slope; the result must be bit for bit Horner's rule on the
    # spline's own c of the point's interval, inside the mesh, on every
    # mesh node, at both of its ends and outside it, where the end
    # intervals extend, out to +-1e16, past the int64 range of the index
    xs = np.linspace(-1.0 - 2e-3, 1.0, 4097)
    spline = CubicSpline(xs, steady_from_rates(FIG2)(xs))
    lookup = characteristics._value_and_slope(spline)
    rng = np.random.default_rng(4)
    inside = rng.integers(0, xs.size - 1, 500)
    n, scale = xs.size - 1, (xs.size - 1) / (xs[-1] - xs[0])
    # a node's interval is the floor of (x - x_0) / h as computed, which may round to the interval below
    on_nodes = [min(math.floor((x - xs[0]) * scale), n - 1) for x in xs.tolist()]
    assert all(i in (k - 1, k, n - 1) for k, i in enumerate(on_nodes))
    points = np.concatenate([xs[inside] + rng.uniform(0.01, 0.99, inside.size) * (xs[inside + 1] - xs[inside]),
                             [xs[0], xs[-1], xs[0] - 1e-3, xs[-1] + 1e-3], xs, [-10.0, 10.0, -1e16, 1e16]])
    intervals = np.concatenate([inside, [0, n - 1, 0, n - 1], on_nodes, [0, n - 1, 0, n - 1]])
    # below about -4.5e15 the index cast leaves the int64 range, which numpy
    # flags as invalid; the march steps under np.errstate(all="ignore")
    with np.errstate(invalid="ignore"):
        value, slope = lookup(points.reshape(5, -1))
    c = spline.c
    for k, (x, i) in enumerate(zip(points.tolist(), intervals.tolist())):
        r = x - xs[i]
        assert value.flat[k] == ((c[0, i] * r + c[1, i]) * r + c[2, i]) * r + c[3, i], x
        assert slope.flat[k] == (c[0, i] * 3.0 * r + 2.0 * c[1, i]) * r + c[2, i], x


def test_linear_end_values_do_not_depend_on_the_node_values():
    # a row that no later row reads skips its node values; its end values
    # and e^I keep every bit
    rng = np.random.default_rng(6)
    for pair, width in ((characteristics._PAIR, 37), (characteristics._LONE_PAIR, 1)):
        y, a, f = rng.normal(size=width), rng.normal(size=(sum(pair), width)), rng.normal(size=(sum(pair), width))
        with_nodes, without = np.empty((2, width)), np.empty((2, width))
        nodes, _, e = characteristics._linear(y, a, f, 0.3, pair, out=with_nodes)
        none, _, e2 = characteristics._linear(y, a, f, 0.3, pair, out=without, nodes=False)
        assert nodes.shape == (sum(pair), width) and none is None
        assert with_nodes.tobytes() == without.tobytes() and e.tobytes() == e2.tobytes()


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


def test_a_step_retires_every_time_it_reaches():
    # on FIG6 a = f = 0 along every curve, so (L, psi) alone set the error,
    # and the error control accepts steps of about 0.7: a step retires the
    # curves of every time it reaches, 7 steps where a march cut at each of
    # the 50 times took 50 (700 node evaluations).  segments still counts
    # the distinct times retired.
    xs, ts = np.linspace(-1, 1, 41), np.linspace(0, 5, 51)
    solver = CharacteristicSolver(FIG6, h=InitialCondition.geometric(3.0))
    solver.solve_difference_grid(xs, ts, steady_from_rates(FIG6))
    stats = solver.stats
    assert (stats["node_evals"], stats["steps"], stats["segments"]) == (98, 7, 50)


@pytest.mark.parametrize(("rates", "h", "counts"), [
    (FIG2, InitialCondition.geometric(3.0), (57, 798, 55, 50)),
    (FIG7, InitialCondition.polynomial([0, 1]), (50, 700, 50, 50)),
    (FIG7, H_SQUARE, (8, 112, 8, 50)),
], ids=["fig2", "fig7-x", "fig7-x2"])
def test_decay_grids_keep_their_march_counts(rates, h, counts):
    # the attempts, node evaluations, steps and segments of the decay
    # workload's other three 41 x 51 grids to t = 5, pinned: they depend on
    # the arithmetic only, and a change to the step control shows here
    xs, ts = np.linspace(-1, 1, 41), np.linspace(0, 5, 51)
    solver = CharacteristicSolver(rates, h=h)
    solver.solve_difference_grid(xs, ts, steady_from_rates(rates))
    stats = solver.stats
    assert tuple(stats[key] for key in ("attempts", "node_evals", "steps", "segments")) == counts


def _record_decisions(monkeypatch) -> list:
    """The list that ``_source_vanishes`` appends each of its decisions to, from now on."""
    decided, real = [], CharacteristicSolver._source_vanishes

    def spy(self, table):
        decided.append(real(self, table))
        return decided[-1]

    monkeypatch.setattr(CharacteristicSolver, "_source_vanishes", spy)
    return decided


@pytest.mark.parametrize(("rates", "h"), [(FIG6, InitialCondition.geometric(3.0)), (FIG7, H_SQUARE)],
                         ids=["fig6", "fig7-x2"])
def test_a_vanishing_source_gives_the_bits_of_the_zero_source(rates, h, monkeypatch):
    # FIG6 has G* = 1 and omega_r = 0, and FIG7 with h = x^2 starts at
    # g_inf = 2: the source is 0 at every x and t, and the homogeneous rows
    # give the bits that the spline, the lookup and the zero source give
    xs, ts = np.linspace(-1, 1, 21), np.linspace(0, 2, 11)
    steady = steady_from_rates(rates)
    decided = _record_decisions(monkeypatch)
    D = CharacteristicSolver(rates, h=h).solve_difference_grid(xs, ts, steady)
    monkeypatch.setattr(CharacteristicSolver, "_source_vanishes", lambda self, table: False)
    sourced = CharacteristicSolver(rates, h=h).solve_difference_grid(xs, ts, steady)
    assert decided == [True]
    assert D.tobytes() == sourced.tobytes()
    assert np.any(D[1:] != 0.0)


def test_a_start_at_the_equilibrium_moment_tabulates_no_profile():
    # g(0) = g_inf = 2 on FIG7 with h = x^2 decides the source from g
    # alone: G* is evaluated once, at the 20 x 11 traced origins off x = 1,
    # and never on the transport's 4,097-point mesh
    sizes = []
    steady = steady_from_rates(FIG7)

    def counting(x):
        sizes.append(np.size(x))
        return steady(x)

    solver = CharacteristicSolver(FIG7, h=H_SQUARE)
    assert solver.g.g0 == solver.g.equilibrium == 2.0
    solver.solve_difference_grid(np.linspace(-1, 1, 21), np.linspace(0, 2, 11), counting)
    assert sizes == [20 * 11]


def test_a_constant_profile_with_rewiring_keeps_its_source(monkeypatch):
    # rewiring and link deletion alone: g decays to 0, G* = 1 (the uniform
    # limit), yet omega_r G* = 1 enters the source through C_g = omega_r,
    # so the source stays and the deviation matches plain subtraction early
    rates, h = ProcessRates(omega_r=1.0, l_d=1.0), H_SQUARE
    steady = steady_from_rates(rates)
    assert steady.case.tag is SteadyCaseTag.UNIFORM_LIMIT
    assert np.all(steady(np.linspace(-1.002, 1.0, 4097)) == 1.0)
    decided = _record_decisions(monkeypatch)
    xs, ts = np.linspace(-1, 1, 21), np.array([0.0, 0.25, 0.5])
    transported = decay_norms(xs, ts, rates, h, steady)
    subtracted = diff_norms(solve_grid(xs, ts, rates, h), steady)
    assert decided == [False]
    np.testing.assert_allclose(transported.sup_norm, subtracted.sup_norm, rtol=1e-4, atol=1e-9)
    np.testing.assert_allclose(transported.argmax_x, subtracted.argmax_x, atol=1e-12)


def _benchmark_points():
    """The reference benchmark's 100 seeded points at seed 1: perfbench's stratified draws after its 2,000 others."""
    rng = np.random.default_rng(1)

    def stratified(n):
        return rng.permutation((np.arange(n) + 1.0 - rng.random(n)) / n)

    stratified(1000), stratified(1000)
    return 2.0 * stratified(100) - 1.0, 5.0 * stratified(100)


def test_batched_points_retire_inside_steps_with_one_evaluation_per_attempt():
    # 100 scattered times: most steps reach several of them, and each curve
    # retires on its own part of the step.  The node times of every length
    # are one evaluation of g and the coefficients, so an attempt still
    # counts 14: 1,470 node evaluations in 82 steps, against 1,596 in 109
    # when every step was cut at the next time.  Their accuracy against
    # one-point queries is checked on other points above.
    xs, ts = _benchmark_points()
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    solver.solve_at(xs, ts)
    stats = solver.stats
    assert (stats["node_evals"], stats["steps"], stats["segments"]) == (1470, 82, 100)


def test_wide_steps_run_in_blocks_that_change_no_bit(monkeypatch):
    # a 41 x 81 deviation grid marches 3,200 curves.  A step's node work
    # runs on blocks of at most 512 of them, so no (14, n) array wider than
    # a block reaches _linear (a (14, 3,200) one is 350 KiB, which the heap
    # gave back and faulted in again on every step); a block as wide as the
    # grid gives the same bits, since the error norm is taken once over the
    # full-width end values
    xs, ts = np.linspace(-1, 1, 41), np.linspace(0, 5, 81)
    steady = steady_from_rates(FIG2)
    widths = []
    real = characteristics._linear

    def recording(y, a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return real(y, a, *args, **kwargs)

    monkeypatch.setattr(characteristics, "_linear", recording)
    D = CharacteristicSolver(FIG2, h=InitialCondition.geometric(3.0)).solve_difference_grid(xs, ts, steady)
    assert max(widths) == characteristics._BLOCK == 512
    widths.clear()
    monkeypatch.setattr(characteristics, "_BLOCK", xs.size * ts.size)
    whole = CharacteristicSolver(FIG2, h=InitialCondition.geometric(3.0)).solve_difference_grid(xs, ts, steady)
    assert max(widths) == 40 * 80
    assert np.array_equal(D, whole)


def test_single_point_march_keeps_its_rhs_evaluation_count():
    # the attempts, node evaluations and steps of one-point marches,
    # pinned: a lone curve steps with the 16- and 14-node rules, 30 node
    # evaluations an attempt, and a change to the rules or the step control
    # shows here.  With the 8- and 6-node rules they took 6, 12, 14, 1, 7
    # and 7 attempts.
    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=5.0)
    seen = []
    for x, t in [(-0.9, 0.3), (-0.4, 1.7), (0.2, 4.6), (0.7, 0.05), (0.95, 2.5), (1.0, 3.0)]:
        solver.solve_at(x, t)
        seen.append(solver.stats)
    # the probe's 2 attempts count in the second query, the first past
    # FIG2's time scale of 0.4
    assert [st["attempts"] for st in seen] == [1, 5, 5, 1, 3, 4]
    assert [st["node_evals"] for st in seen] == [30, 150, 150, 30, 90, 120]
    assert [st["steps"] for st in seen] == [1, 3, 5, 1, 3, 4]


_RATE_NAMES = ("omega_r", "omega_p", "l_d", "l_r", "l_p", "n_d", "n_r", "n_p")


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e3])
def test_a_query_does_not_depend_on_earlier_queries(scale):
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
    node_evals = 0
    for order in (points, points[::-1]):
        for p in order:
            assert solver.solve_at(*p) == fresh[p]
            node_evals += solver.stats["node_evals"]
    assert node_evals <= 14 * 132


def test_without_rates_the_first_step_is_the_first_segment():
    # no rate, no time scale and no probe: one step to t = 2, on the 30
    # nodes of a lone curve's rules, and G = h, G_x = h' stay put
    solver = CharacteristicSolver(ProcessRates(), h=H_SQUARE)
    np.testing.assert_allclose(solver.solve_at(0.3, 2.0), (0.09, 0.6), rtol=1e-15)
    stats = solver.stats
    assert (stats["attempts"], stats["node_evals"], stats["steps"]) == (1, 30, 1)


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
    assert 0 < calls[0] <= stats["attempts"] + stats["flow_rhs_evals"] + 1


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

    def rows(s, k):
        def block(w):
            yield np.full_like(w, a), np.full_like(w, f)

        return block

    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=4.0)
    x, t = np.tile(xs, ts.size), np.repeat(ts, xs.size)
    data, _ = solver._march(*solver._trace_back_many(x, t), t, lambda x0: [1.0 + x0], rows, characteristics.RTOL,
                            characteristics.ATOL)
    origins = solver.trace_back(x, t)
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
    def rows(s, k):
        def block(w):
            yield np.zeros_like(w), np.where(s > 0.5, np.nan, 0.0) + w

        return block

    solver = CharacteristicSolver(FIG2, h=H_SQUARE, t_max=1.0)
    with pytest.raises(IntegrationError, match="below 10 ulp") as info:
        solver._march(*solver._trace_back_many(np.array([0.3]), np.array([1.0])), np.array([1.0]), lambda x0: [x0],
                      rows, characteristics.RTOL, characteristics.ATOL)
    s = float(str(info.value).split("t = ")[1].split(":")[0])
    assert abs(s - 0.5) <= 1e-13
