"""The benchmark's three workloads: inputs built from a seed, tasks and gates.

Each workload is a study that a user of degreeflow runs; README.md in this
directory says why each one exists.  Tasks call the library through module
and class attributes, so a traced run can wrap those attributes from the
outside (``trace_targets``) without touching the package.  A task returns a
``Check``: the numbers it produced and the measured value of each gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from degreeflow import InitialCondition, ProcessRates, SimConfig
from degreeflow import analysis, characteristics, config, degree_ode, graphsim, steady
from spans import CountTarget, SpanTarget

EXAMPLE_INI = Path(__file__).with_name("example.ini")

WORKLOADS = ("decay", "reference", "ensemble")

# Acceptance bounds of tests/test_acceptance.py, unchanged.  Every gate
# passes when its measured value is <= its bound.
BOUNDS = {
    "oracle_dev": 1e-4,  # criterion 2: max |G_transport - G_oracle|
    "origin_abs": 1.0,  # criterion 4: traced origins stay in [-1, 1]
    "residual": 1e-6,  # criterion 5: stationary-equation defect
    "anchor_dev": 1e-8,  # criterion 5: anchor 0.7 against anchor xi
    "half_dev": 1e-6,  # criterion 5: |G*(0.5) - 0.1|
    "fit_misfit": 1e-2,  # criterion 7: 1 - R^2 of the exponential verdict
    "tv": 0.05,  # criterion 8: ensemble against oracle, total variation
    "mass_drift": 1e-6,  # criterion 9: oracle mass drift
}

FIG6 = dict(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1, n_d=1, n_r=0, n_p=0, m=3)
FIG7 = dict(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=0, m=3)
TWO_SINGULARITY = dict(omega_r=0, omega_p=1, l_d=1, l_r=1, l_p=0, n_d=0, n_r=0, n_p=2, m=3)
CRITERION5_CONSTANTS = (2.0, 1.0, 1.0, 2.0, 3)

ORACLE_K_MAX = 200
ORACLE_TOL = 1e-12
QUERY_T_MAX = 5.0
N_TRACE = 1000
N_POINT = 100
SAMPLE_TIMES = (0.0, 0.05, 0.1, 0.2, 0.5)


@dataclass
class Check:
    output: tuple  # numbers compared between traced and untraced passes
    gates: dict[str, float] = field(default_factory=dict)  # BOUNDS key -> measured
    verdicts: dict[str, bool] = field(default_factory=dict)  # qualitative checks

    def failures(self) -> list[str]:
        bad = [k for k, v in self.gates.items() if not v <= BOUNDS[k]]
        return bad + [k for k, ok in self.verdicts.items() if not ok]


@dataclass(frozen=True)
class Task:
    name: str
    fn: Callable[[dict], Check]


# -- inputs ------------------------------------------------------------------


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n seeded draws in (0, 1], one per stratum, in random order.

    Query cost grows with t, so stratifying keeps the total work of a
    workload nearly the same for every seed.
    """
    return rng.permutation((np.arange(n) + 1.0 - rng.random(n)) / n)


def build_inputs(workload: str, seed: int) -> dict:
    """Rates, initial conditions, grids and seeded query points of a workload."""
    cfg = config.parse_config(str(EXAMPLE_INI))
    inp = {"fig2": cfg.rates, "square": cfg.initial(), "geometric": InitialCondition.geometric(3.0)}
    if workload == "decay":
        inp.update(
            fig6=ProcessRates(**FIG6),
            fig7=ProcessRates(**FIG7),
            linear=InitialCondition.polynomial([0, 1]),
            xs=np.linspace(-1.0, 1.0, 41),
            ts=np.linspace(0.0, 5.0, 51),
        )
    elif workload == "reference":
        rng = np.random.default_rng(seed)
        inp.update(
            grid_x=cfg.x_grid(),
            grid_t=cfg.t_grid(),
            trace_x=2.0 * _stratified(rng, N_TRACE) - 1.0,
            trace_t=QUERY_T_MAX * _stratified(rng, N_TRACE),
            point_x=2.0 * _stratified(rng, N_POINT) - 1.0,
            point_t=QUERY_T_MAX * _stratified(rng, N_POINT),
            two_singularity=ProcessRates(**TWO_SINGULARITY),
            # the table CharacteristicSolver.solve_difference_grid builds
            table_x=np.linspace(-1.0 - 2e-3, 1.0, 4097),
            c5_x=np.linspace(-1.0, 1.0, 101),
        )
    elif workload == "ensemble":
        fig6 = ProcessRates(**FIG6)
        common = dict(n_nodes=cfg.mc_nodes, replicas=cfg.mc_replicas, k_max=cfg.mc_k_max,
                      sample_times=SAMPLE_TIMES, seed=seed, graph_degree=cfg.mc_graph_degree)
        inp.update(
            sim_fig2=SimConfig(rates=cfg.rates, graph=cfg.mc_graph, **common),
            sim_fig6=SimConfig(rates=fig6, graph="erdos", **common),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return inp


# -- decay: criterion 7 as a study ---------------------------------------------


def _decay_series(inp, rates_key, h_key):
    rates = inp[rates_key]
    st = steady.steady_from_rates(rates)
    return analysis.decay_norms(inp["xs"], inp["ts"], rates, inp[h_key], st)


def _series_output(series):
    return (series.sup_norm, series.l2_norm, series.argmax_x)


def decay_fig2(inp):
    series = _decay_series(inp, "fig2", "geometric")
    fit = analysis.fit_rate(series, (1.0, 5.0))
    return Check(_series_output(series) + (fit.rate, fit.r_squared),
                 gates={"fit_misfit": 1.0 - fit.r_squared},
                 verdicts={"exponential": fit.model == "exponential"})


def decay_fig6(inp):
    series = _decay_series(inp, "fig6", "geometric")
    fit = analysis.fit_rate(series, (1.0, 5.0))
    return Check(_series_output(series) + (fit.rate,), verdicts={"algebraic": fit.model == "algebraic"})


def _decay_fig7(inp, h_key):
    series = _decay_series(inp, "fig7", h_key)
    bend = analysis.detect_bend(series)
    return Check(_series_output(series) + (np.nan if bend is None else bend,),
                 verdicts={"bend": bend is not None})


# -- reference: independent cross-checks and point queries ---------------------


def _mass_drift(traj, t_end: float) -> float:
    return max(abs(traj.mass(float(t)) - 1.0) for t in np.linspace(0.0, t_end, 11))


def _oracle(p0, rates, t_end):
    traj = degree_ode.integrate(p0, rates, t_end, tol=ORACLE_TOL)
    return traj, _mass_drift(traj, t_end)


def _grid_vs_oracle(inp, h_key):
    xs, ts, rates, h = inp["grid_x"], inp["grid_t"], inp["fig2"], inp[h_key]
    fld = characteristics.solve_grid(xs, ts, rates, h)
    traj, drift = _oracle(h.coefficients(ORACLE_K_MAX), rates, float(ts[-1]))
    ref = np.array([degree_ode.gf_eval(traj.at(float(t)), xs) for t in ts])
    return Check((fld.G, fld.Gx, ref),
                 gates={"oracle_dev": float(np.max(np.abs(fld.G - ref))), "mass_drift": drift})


def trace_queries(inp):
    solver = characteristics.CharacteristicSolver(inp["fig2"], h=inp["square"], t_max=QUERY_T_MAX)
    origins = np.array([solver.trace_back(float(x), float(t))
                        for x, t in zip(inp["trace_x"], inp["trace_t"])])
    return Check((origins,), gates={"origin_abs": float(np.max(np.abs(origins)))})


def point_queries(inp):
    rates, h = inp["fig2"], inp["square"]
    traj, drift = _oracle(h.coefficients(ORACLE_K_MAX), rates, QUERY_T_MAX)
    solver = characteristics.CharacteristicSolver(rates, h=h, t_max=QUERY_T_MAX)
    pairs = list(zip(inp["point_x"].tolist(), inp["point_t"].tolist()))
    got = np.array([solver.solve_at(x, t) for x, t in pairs])
    ref = np.array([degree_ode.gf_eval(traj.at(t), x) for x, t in pairs])
    return Check((got, ref), gates={"oracle_dev": float(np.max(np.abs(got[:, 0] - ref))),
                                    "mass_drift": drift})


def two_singularity_values(inp):
    st = steady.steady_from_rates(inp["two_singularity"])
    values = st(inp["table_x"])
    return Check((values,), verdicts={"two_singularity": st.case.tag is steady.SteadyCaseTag.TWO_SINGULARITY,
                                      "finite": bool(np.all(np.isfinite(values)))})


def two_singularity_derivative(inp):
    st = steady.steady_from_rates(inp["two_singularity"])
    slopes = st.derivative(inp["table_x"])
    return Check((slopes,), verdicts={"finite": bool(np.all(np.isfinite(slopes)))})


def criterion5(inp):
    constants = steady.explicit_constants(*CRITERION5_CONSTANTS)
    st = steady.construct(constants)
    xs = inp["c5_x"]
    keep = (np.abs(xs - 0.5) > 1e-3) & (np.abs(xs - 1.0) > 1e-3)
    res = float(np.max(np.abs(steady.residual(st, constants, xs[keep]))))
    anchored = steady.construct(constants, anchor=0.7)
    anchor_dev = float(np.max(np.abs(st(xs) - anchored(xs))))
    half_dev = abs(st(0.5) - 0.1)
    return Check((res, anchor_dev, half_dev),
                 gates={"residual": res, "anchor_dev": anchor_dev, "half_dev": half_dev},
                 verdicts={"exact_one": st(1.0) == 1.0})


# -- ensemble: the Monte Carlo study -------------------------------------------


def _ensemble(inp, key):
    sim = inp[key]
    res = graphsim.run(sim)
    # the oracle starts from the ensemble's own t = 0 histogram
    p0 = np.zeros(ORACLE_K_MAX + 1)
    p0[: sim.k_max + 1] = res.mean[0]
    traj = degree_ode.integrate(p0, sim.rates, float(res.times[-1]))
    tvs = []
    for j, t in enumerate(res.times):
        ref = traj.at(float(t)).p[: sim.k_max + 1]
        mean = res.mean[j]
        tvs.append(0.5 * float(np.sum(np.abs(mean - ref)))
                   + 0.5 * abs((1.0 - mean.sum()) - (1.0 - ref.sum())))
    return Check((res.mean, res.stderr, np.array(tvs)),
                 gates={"tv": max(tvs), "mass_drift": _mass_drift(traj, float(res.times[-1]))})


TASKS = {
    "decay": (
        Task("fig2_geometric_exponential", decay_fig2),
        Task("fig6_geometric_algebraic", decay_fig6),
        Task("fig7_linear_bend", lambda inp: _decay_fig7(inp, "linear")),
        Task("fig7_square_bend", lambda inp: _decay_fig7(inp, "square")),
    ),
    "reference": (
        Task("oracle_grid_square", lambda inp: _grid_vs_oracle(inp, "square")),
        Task("oracle_grid_geometric", lambda inp: _grid_vs_oracle(inp, "geometric")),
        Task("trace_back_queries", trace_queries),
        Task("solve_at_queries", point_queries),
        Task("two_singularity_values", two_singularity_values),
        Task("two_singularity_derivative", two_singularity_derivative),
        Task("criterion5_constants", criterion5),
    ),
    "ensemble": (
        Task("fig2_regular_ring", lambda inp: _ensemble(inp, "sim_fig2")),
        Task("fig6_erdos", lambda inp: _ensemble(inp, "sim_fig6")),
    ),
}


# -- what a traced pass records ------------------------------------------------


def _count_ivp(module: str):
    def on_call(sol, tracer):
        tracer.count(f"{module}.ivp_calls")
        tracer.count(f"{module}.rhs_evals", sol.nfev)

    return on_call


def trace_targets() -> list:
    """Public entry points recorded as spans, and the counted integrator names.

    The counted names are the ``solve_ivp``/``quad`` each module imported and
    the simulator's event draw, so every call the module makes is seen.
    """
    solver, state = characteristics.CharacteristicSolver, steady.SteadyState
    return [
        SpanTarget(config, "parse_config", "config.parse"),
        SpanTarget(characteristics, "solve_grid", "characteristics.grid"),
        SpanTarget(solver, "trace_back", "characteristics.trace"),
        SpanTarget(solver, "solve_at", "characteristics.point"),
        SpanTarget(solver, "solve_difference_grid", "characteristics.diff_transport"),
        SpanTarget(steady, "steady_from_rates", "steady.build"),
        SpanTarget(steady, "construct", "steady.build"),
        SpanTarget(state, "__call__", "steady.tabulate"),
        SpanTarget(state, "derivative", "steady.tabulate"),
        SpanTarget(degree_ode, "integrate", "degree_ode.integrate"),
        SpanTarget(degree_ode, "gf_eval", "degree_ode.gf_eval"),
        SpanTarget(graphsim, "run", "graphsim.run",
                   observe=lambda res, tracer: tracer.count("graphsim.skipped", res.skipped)),
        SpanTarget(analysis, "decay_norms", "analysis.decay_norms"),
        SpanTarget(analysis, "fit_rate", "analysis.fit"),
        SpanTarget(analysis, "detect_bend", "analysis.fit"),
        CountTarget(characteristics, "solve_ivp", _count_ivp("characteristics")),
        CountTarget(degree_ode, "solve_ivp", _count_ivp("degree_ode")),
        CountTarget(steady, "solve_ivp", _count_ivp("steady")),
        CountTarget(steady, "quad", lambda _, tracer: tracer.count("steady.quad_calls")),
        CountTarget(graphsim, "_draw", lambda _, tracer: tracer.count("graphsim.events")),
    ]
