"""Acceptance gate: every shipped guarantee, one verdict line per criterion.

Each test prints a single PASS/FAIL line with the measured figure next to
its bound, then asserts. Criteria with stated runtime budgets measure wall
time and enforce it.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from degreeflow.analysis import decay_norms, detect_bend, fit_rate
from degreeflow.characteristics import CharacteristicSolver, solve_grid
from degreeflow.degree_ode import gf_eval, integrate
from degreeflow.errors import NoSteadyStateError
from degreeflow.graphsim import SimConfig, run
from degreeflow.initial import InitialCondition
from degreeflow.model import Degeneracy, ProcessRates, derive_riccati, steady_constants
from degreeflow.riccati import ClosedFormMoment, equilibrium
from degreeflow.steady import construct, explicit_constants, residual, steady_from_rates

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)
FIG6 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1,
                    n_d=1, n_r=0, n_p=0, m=3)
FIG7 = ProcessRates(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=0, m=3)

# oracle mass drifts observed by earlier criteria, checked again by criterion 9
_ORACLE_DRIFTS: list[tuple[str, float]] = []


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {num} [{name}]: {detail}"


def _track_mass(label, traj, t_end):
    drift = max(abs(traj.mass(float(t)) - 1.0) for t in np.linspace(0, t_end, 11))
    _ORACLE_DRIFTS.append((label, drift))


def test_criterion_1_nonlocal_closure(capsys):
    start = time.perf_counter()
    ts = np.linspace(0.0, 0.2, 21)
    field = solve_grid(np.array([-1.0, 0.0, 1.0]), ts, FIG2,
                       InitialCondition.polynomial([0, 0, 1]))
    g = ClosedFormMoment(derive_riccati(FIG2), 2.0)
    unit = float(np.max(np.abs(field.G[:, 2] - 1.0)))
    closure = float(np.max(np.abs(field.Gx[:, 2] - g(ts))))
    elapsed = time.perf_counter() - start
    ok = unit <= 1e-7 and closure <= 1e-6 and elapsed <= 10.0
    _report(capsys, 1, "nonlocal closure", ok,
            f"|G(1,t)-1| = {unit:.2e} <= 1e-7, |Gx(1,t)-g| = {closure:.2e} <= 1e-6, "
            f"{elapsed:.1f}s <= 10s")


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    xs = np.linspace(-1, 1, 41)
    ts = np.linspace(0, 1, 11)
    worst = 0.0
    for label, h in (("square", InitialCondition.polynomial([0, 0, 1])),
                     ("geometric", InitialCondition.geometric(3.0))):
        field = solve_grid(xs, ts, FIG2, h)
        # the geometric tail reaches 1e-96; a tight tolerance keeps the
        # integrator's negative excursions inside the distribution guard
        traj = integrate(h.coefficients(200), FIG2, 1.0, tol=1e-12)
        _track_mass(f"fig2 {label}", traj, 1.0)
        for j, t in enumerate(ts):
            ref = gf_eval(traj.at(float(t)), xs)
            worst = max(worst, float(np.max(np.abs(field.G[j] - ref))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed <= 60.0
    _report(capsys, 2, "oracle equivalence", ok,
            f"max |G_pde - G_oracle| = {worst:.2e} <= 1e-4 on 41x11, "
            f"{elapsed:.1f}s <= 60s")


def test_criterion_3_moment_consistency(capsys):
    h = InitialCondition.delta(2)
    worst = 0.0
    for label, rates in (("fig2", FIG2), ("fig6", FIG6), ("fig7", FIG7)):
        traj = integrate(h.coefficients(200), rates, 1.0)
        _track_mass(label, traj, 1.0)
        g = ClosedFormMoment(derive_riccati(rates), 2.0)
        for t in np.linspace(0, 1, 11):
            worst = max(worst, abs(traj.first_moment(float(t)) - g(float(t))))
    ok = worst <= 1e-4
    _report(capsys, 3, "moment consistency", ok,
            f"max |mu_ode - g| = {worst:.2e} <= 1e-4 over three rate sets")


def test_criterion_4_trapping_and_roundtrip(capsys):
    h = InitialCondition.polynomial([0, 0, 1])
    solver = CharacteristicSolver(FIG2, h=h, t_max=5.0)
    rng = np.random.default_rng(0)
    xb = rng.uniform(-1, 1, 1000)
    tb = rng.uniform(0, 5, 1000)
    tb[tb == 0] = 2.5
    x0 = np.array([solver.trace_back(float(x), float(t))
                   for x, t in zip(xb, tb)])
    trapped = bool(np.all(x0 >= -1 - 1e-9) and np.all(x0 <= 1 + 1e-9))

    # independent forward reintegration per point, one ODE solve each
    g = solver.g
    r = FIG2

    def forward(x0v, t_bar):
        if x0v == 1.0:
            return 1.0

        def rhs(t, y):
            gv = g(t)
            A = r.omega_p + (2 * r.l_p + r.m * r.n_p) / gv
            B = r.l_d + r.omega_p + r.omega_r + r.n_d * gv
            return [(A - B) * y[0] + A]

        sol = solve_ivp(rhs, (0.0, t_bar), [1.0 / (x0v - 1.0)],
                        method="DOP853", rtol=1e-12, atol=1e-14)
        return 1.0 + 1.0 / sol.y[0, -1]

    worst = max(abs(forward(float(a), float(t)) - float(x))
                for a, x, t in zip(x0, xb, tb))
    ok = trapped and worst <= 1e-8
    _report(capsys, 4, "trapping and roundtrip", ok,
            f"origins in [-1-1e-9, 1+1e-9]: {trapped}, "
            f"worst of 1000 roundtrips = {worst:.2e} <= 1e-8")


def test_criterion_5_two_singularity_construction(capsys):
    constants = explicit_constants(2.0, 1.0, 1.0, 2.0, 3)
    st = construct(constants)
    exact_one = st(1.0) == 1.0
    at_half = abs(st(0.5) - 0.1)
    xs = np.linspace(-1, 1, 101)
    keep = (np.abs(xs - 0.5) > 1e-3) & (np.abs(xs - 1.0) > 1e-3)
    res = float(np.max(np.abs(residual(st, constants, xs[keep]))))
    st_b = construct(constants, anchor=0.7)
    anchor_dev = float(np.max(np.abs(st(xs) - st_b(xs))))
    ok = exact_one and at_half <= 1e-6 and res <= 1e-6 and anchor_dev <= 1e-8
    _report(capsys, 5, "stationary two-singularity profile", ok,
            f"G*(1)=1 exact: {exact_one}, |G*(0.5)-0.1| = {at_half:.2e} <= 1e-6, "
            f"residual = {res:.2e} <= 1e-6, anchor dev = {anchor_dev:.2e} <= 1e-8")


def test_criterion_6_slope_identity(capsys):
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 100:
        vals = rng.uniform(0, 2, 8)
        m = int(rng.integers(0, 5))
        rates = ProcessRates(*vals, m=m)
        sc = steady_constants(rates)
        if sc.degeneracy is not Degeneracy.REGULAR:
            continue
        slope = (sc.c3 + sc.c4 * m) / (sc.c4 + sc.c2 - sc.c1)
        g_inf = equilibrium(derive_riccati(rates))
        worst = max(worst, abs(slope - g_inf) / max(1.0, abs(g_inf)))
        checked += 1
    ok = checked == 100 and worst <= 1e-8
    _report(capsys, 6, "slope identity", ok,
            f"worst relative deviation over {checked} regular rate sets = "
            f"{worst:.2e} <= 1e-8")


def test_criterion_7_convergence_regimes(capsys):
    xs = np.linspace(-1, 1, 41)
    ts = np.linspace(0, 5, 51)
    geom = InitialCondition.geometric(3.0)

    fit5 = fit_rate(decay_norms(xs, ts, FIG2, geom, steady_from_rates(FIG2)),
                    (1.0, 5.0))
    fig5_ok = fit5.model == "exponential" and fit5.r_squared >= 0.99

    fit6 = fit_rate(decay_norms(xs, ts, FIG6, geom, steady_from_rates(FIG6)),
                    (1.0, 5.0))
    fig6_ok = fit6.model == "algebraic"

    st7 = steady_from_rates(FIG7)
    bends = []
    for h in (InitialCondition.polynomial([0, 1]),
              InitialCondition.polynomial([0, 0, 1])):
        bends.append(detect_bend(decay_norms(xs, ts, FIG7, h, st7)))
    fig7_ok = all(b is not None for b in bends)

    ok = fig5_ok and fig6_ok and fig7_ok
    _report(capsys, 7, "convergence regimes", ok,
            f"exponential verdict R^2 = {fit5.r_squared:.5f} >= 0.99 "
            f"(rate {fit5.rate:.3f}); algebraic verdict: {fit6.model}; "
            f"bend times {bends}")


def test_criterion_8_stochastic_validation(capsys):
    start = time.perf_counter()
    cfg = SimConfig(rates=FIG2, n_nodes=2000, sample_times=(0.05, 0.1, 0.2),
                    seed=12345, replicas=20, graph="regular",
                    graph_degree=2.0, k_max=60)
    res = run(cfg)
    h = InitialCondition.delta(2)
    traj = integrate(h.coefficients(200), FIG2, 0.2)
    _track_mass("fig2 delta2", traj, 0.2)
    tvs = []
    for j, t in enumerate(res.times):
        ref = traj.at(float(t)).p[:61]
        mean = res.mean[j]
        tv = 0.5 * float(np.sum(np.abs(mean - ref))) + 0.5 * abs(
            (1.0 - mean.sum()) - (1.0 - ref.sum()))
        tvs.append(tv)
    elapsed = time.perf_counter() - start
    ok = max(tvs) <= 0.05 and elapsed <= 300.0
    detail = ", ".join(f"TV(t={t:g}) = {tv:.4f}"
                       for t, tv in zip(res.times, tvs))
    _report(capsys, 8, "stochastic validation", ok,
            f"{detail}, all <= 0.05, {elapsed:.1f}s <= 300s")


def test_criterion_9_mass_conservation(capsys):
    if not _ORACLE_DRIFTS:
        traj = integrate(InitialCondition.delta(2).coefficients(200), FIG2, 1.0)
        _track_mass("fig2 fresh", traj, 1.0)
    worst = max(d for _, d in _ORACLE_DRIFTS)
    ok = worst <= 1e-6
    _report(capsys, 9, "oracle mass conservation", ok,
            f"max |mass - 1| = {worst:.2e} <= 1e-6 across "
            f"{len(_ORACLE_DRIFTS)} oracle runs")
