"""Property tests of the characteristic transport, the master-equation oracle, the simulator's event loop and
config, the public numeric arguments and the CLI over drawn inputs.

Every case either raises a DegreeFlowError or meets the solver's
invariants, every run of the event loop leaves a consistent graph whose
node and link counts match its event counts, every simulator config
either constructs or raises ValidationError, every call with a drawn
number either works or raises a DegreeFlowError, and every CLI run ends
in a documented exit code.  The draws are derandomized, so the suite sees
the same cases on every run.
"""

import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from degreeflow.analysis import ConvergenceSeries, detect_bend, fit_rate  # noqa: E402
from degreeflow.characteristics import CharacteristicSolver  # noqa: E402
from degreeflow.cli import main  # noqa: E402
from degreeflow.degree_ode import gf_eval, integrate  # noqa: E402
from degreeflow.errors import AbsorbingStateReached, DegreeFlowError, ValidationError  # noqa: E402
from degreeflow.graphsim import Network, SimConfig, _chain, _Stream, run  # noqa: E402
from degreeflow.initial import InitialCondition  # noqa: E402
from degreeflow.model import ProcessRates, RiccatiCoefficients, derive_riccati  # noqa: E402
from degreeflow.riccati import ClosedFormMoment  # noqa: E402
from degreeflow.steady import construct, explicit_constants, steady_from_rates  # noqa: E402
from test_graphsim import check  # noqa: E402

_PROCESSES = ("omega_r", "omega_p", "l_d", "l_r", "l_p", "n_d", "n_r", "n_p")
_RATE = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
_T_MAX = 2.0


@st.composite
def _cases(draw):
    rates = ProcessRates(**{name: draw(_RATE) for name in _PROCESSES}, m=draw(st.integers(0, 4)))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(lambda w: sum(w) > 0.0))
        h = InitialCondition.polynomial(np.array(weights) / sum(weights))
    else:
        h = InitialCondition.geometric(draw(st.floats(1.2, 6.0)))
    n = draw(st.integers(1, 4))
    xs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    ts = draw(st.lists(st.floats(0.0, _T_MAX), min_size=n + 1, max_size=n + 1))
    # one curve sits on x = 1, where G = 1 and G_x = g hold exactly
    return rates, h, np.array(xs + [1.0]), np.array(ts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_cases())
# found by this test: g0 = 5e-324 ended in a raw ZeroDivisionError from
# -wsum / g**2, with wsum = 0 and with wsum > 0
@example((ProcessRates(), InitialCondition.polynomial([1.0, 5e-324]), np.array([0.0, 1.0]), np.array([0.0, 1.0])))
@example((ProcessRates(l_p=1.0), InitialCondition.polynomial([1.0, 5e-324]), np.array([1.0]), np.array([1.0])))
# found by this test: a first segment of 1.5e-183, or of 2^-149 (printed
# as 1.40129846e-45), makes h^13 underflow to 0, and a step control that
# forms the error constant err / h^13 raised a raw ZeroDivisionError
@example((ProcessRates(l_p=1.0), InitialCondition.geometric(2.0), np.array([0.0, 1.0]), np.array([1.0, 1.5e-183])))
@example((ProcessRates(n_p=1.0, m=1), InitialCondition.geometric(1.21875),
          np.array([0.0, 1.0]), np.array([1.0, 2.0**-149])))
def test_transport_invariants_or_a_degreeflow_error(case):
    rates, h, xs, ts = case
    try:
        solver = CharacteristicSolver(rates, h=h, t_max=_T_MAX)
        G, Gx = solver.solve_at(xs, ts)
        origins = solver.trace_back(xs, ts)
        alone = np.array([solver.solve_at(x, t) for x, t in zip(xs.tolist(), ts.tolist())])
    except DegreeFlowError:
        return
    assert G[-1] == 1.0
    g = solver.g(ts[-1])
    assert abs(Gx[-1] - g) <= 1e-8 * max(1.0, g)
    assert np.all(np.abs(origins) <= 1.0)
    np.testing.assert_allclose(G, alone[:, 0], rtol=0, atol=1e-8)
    np.testing.assert_allclose(Gx, alone[:, 1], rtol=1e-7, atol=1e-7)


@st.composite
def _oracle_cases(draw):
    rates = ProcessRates(**{name: draw(_RATE) for name in _PROCESSES}, m=draw(st.integers(0, 4)))
    k_max = draw(st.integers(rates.m + 2, 80))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=min(k_max + 1, 8)).filter(lambda w: sum(w) > 0.0))
    p0 = np.zeros(k_max + 1)
    p0[: len(weights)] = weights
    return rates, p0 / p0.sum(), draw(st.floats(0.01, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_oracle_cases())
def test_oracle_conserves_mass_or_a_degreeflow_error(case):
    rates, p0, t_end = case
    try:
        traj = integrate(p0, rates, t_end)
    except DegreeFlowError:
        return
    assert traj.stats["mass_drift"] <= 1e-6  # integrate's default mass_tol
    assert np.isfinite(traj.stats["tail_weight"])



# a rate of the event loop is 0 in three draws of ten, away from the ends
# of the range that hypothesis favours, else drawn from [0.05, 2]
_LOOP_RATE = st.tuples(st.integers(0, 9), st.floats(0.05, 2.0)).map(lambda d: 0.0 if d[0] in (2, 5, 7) else d[1])


@st.composite
def _chain_cases(draw):
    rates = ProcessRates(**{name: draw(_LOOP_RATE) for name in _PROCESSES}, m=draw(st.integers(0, 4)))
    n = draw(st.integers(2, 30))
    start = draw(st.sampled_from(("ring", "erdos", "empty", "one link")))
    degree = 2 * draw(st.integers(0, (n - 1) // 2)) if start == "ring" else draw(st.floats(0.0, 6.0))
    return rates, start, n, degree, draw(st.integers(0, 2**32)), draw(st.floats(0.01, 1.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_chain_cases())
def test_event_loop_keeps_the_graph_and_its_counts(case):
    rates, start, n, degree, seed, t_end = case
    rng = np.random.default_rng(seed)
    net = {"ring": lambda: Network.regular_ring(n, degree), "erdos": lambda: Network.erdos_renyi(n, degree, rng),
           "empty": lambda: Network.empty(n), "one link": lambda: Network._linked(n, [(0, 1)])}[start]()
    n0, e0 = len(net._nodes), len(net._edges)
    events, skips = [0] * 8, [0] * 8
    try:
        _chain(net, rates, _Stream(rng), (t_end,), lambda: None, events, skips)
    except AbsorbingStateReached:
        pass  # a frozen graph is checked as it stands
    check(net)
    assert all(u < net._next_id for u in net._nodes)
    added = (events[6] - skips[6]) + (events[7] - skips[7])
    assert len(net._nodes) == n0 + added - events[5]
    # a node deletion also drops the links of its node, which no count records
    if rates.n_d == 0.0:
        assert len(net._edges) == e0 - events[2] + (events[3] - skips[3]) + (events[4] - skips[4]) + rates.m * added


# SimConfig's fields, each drawn valid, and then at most one of them
# replaced by None, a bool, an int of any size, a float with nan and inf, a
# short string or a list, so that the checks before it pass; a sample time
# may be any of those inside a tuple
_SIM_VALID = {
    "rates": st.just(ProcessRates(l_r=1.0, n_d=0.2)),
    "n_nodes": st.integers(1, 300),
    "sample_times": st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3).map(lambda v: tuple(sorted(set(v)))),
    "seed": st.integers(0, 2**32),
    "replicas": st.integers(1, 4),
    "graph": st.sampled_from(["regular", "erdos", "empty"]),
    "graph_degree": st.floats(0.0, 10.0),
    "k_max": st.integers(1, 300),
}
_ANYTHING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                      st.lists(st.floats(), max_size=2))


@st.composite
def _sim_configs(draw):
    kwargs = {name: draw(valid) for name, valid in _SIM_VALID.items()}
    name = draw(st.sampled_from([None, *_SIM_VALID]))
    if name == "sample_times" and draw(st.booleans()):
        kwargs[name] = tuple(draw(st.lists(st.one_of(st.floats(0.0, 5.0), _ANYTHING), min_size=1, max_size=3)))
    elif name is not None:
        kwargs[name] = draw(_ANYTHING)
    return kwargs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_sim_configs())
# the inputs that raised a raw TypeError or ValueError before the check
@example({"rates": ProcessRates(l_r=1.0), "n_nodes": 10, "sample_times": ("a",), "seed": 1})
@example({"rates": ProcessRates(l_r=1.0), "n_nodes": 10, "sample_times": (0.1,), "seed": 1, "graph_degree": "2"})
@example({"rates": ProcessRates(l_r=1.0), "n_nodes": 10, "sample_times": (0.1,), "seed": 1, "graph_degree": None})
def test_sim_config_constructs_or_raises_a_validation_error(kwargs):
    try:
        cfg = SimConfig(**kwargs)
    except ValidationError:
        return
    assert type(cfg.graph_degree) is float and np.isfinite(cfg.graph_degree)
    assert cfg.sample_times and all(type(t) is float for t in cfg.sample_times)
    assert min(cfg.n_nodes, cfg.replicas, cfg.k_max) >= 1 and cfg.seed >= 0
    # a ring degree that regular_ring cannot build is refused here, not in run
    assert cfg.graph != "regular" or (cfg.graph_degree % 2 == 0 and 0 <= cfg.graph_degree < cfg.n_nodes)

# A caller's argument: anything _ANYTHING draws, or one of the values that
# once ended in a raw error.  A valid time or degree far past the tested
# range is left out, and so is a point far outside [-1, 1]: each is valid,
# and costs a long march, a long simulation or gigabytes, or overflows.
_ARGUMENT = st.one_of(_ANYTHING, st.sampled_from([10**400, True, math.nan, math.inf]))
_MODEST = _ARGUMENT.filter(lambda v: not any(isinstance(e, (int, float)) and 10 < abs(e) < 2**1024
                                             for e in (v if isinstance(v, list) else [v])))
_FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=1, m=3)
_H = InitialCondition.polynomial([0.0, 0.0, 1.0])
_P0 = np.eye(12)[2]
_TRAJ = integrate(np.eye(61)[2], _FIG2, 0.5)
_TWO_SINGULARITY = explicit_constants(2.0, 1.0, 1.0, 1.0, 2)
_STEADY = steady_from_rates(_FIG2)
_T = np.linspace(0.0, 5.0, 11)
_SERIES = ConvergenceSeries(_T, np.exp(-_T) + 1e-3, np.exp(-_T) + 1e-3, np.where(_T < 2.0, -1.0, 0.3))


def _replaced(args: tuple, i: int, v) -> tuple:
    return args[:i] + (v,) + args[i + 1:]


# each public entry, by name, with the call that passes the drawn value v
# as one of its numeric arguments and the draw of v
_ENTRIES = {
    **{f"ProcessRates({name}=)": (lambda v, name=name: ProcessRates(**{name: v}), _ARGUMENT)
       for name in (*_PROCESSES, "m")},
    **{f"explicit_constants({name})": (lambda v, i=i: explicit_constants(*_replaced((2.0, 1.0, 1.0, 2.0, 3), i, v)),
                                       _ARGUMENT)
       for i, name in enumerate(("c1", "c2", "c3", "c4", "m"))},
    "ClosedFormMoment(g0)": (lambda v: ClosedFormMoment(derive_riccati(_FIG2), v), _ARGUMENT),
    **{f"ClosedFormMoment({name})": (lambda v, name=name: ClosedFormMoment(
        RiccatiCoefficients(**{"n_d": 1.0, "b": 1.0, "c": 1.0, name: v}), 1.0), _ARGUMENT)
       for name in ("n_d", "b", "c")},
    "integrate(p0)": (lambda v: integrate(v, _FIG2, 0.5), _ARGUMENT),
    "integrate(rates)": (lambda v: integrate(_P0, v, 0.5), _ARGUMENT),
    "integrate(t_end)": (lambda v: integrate(_P0, _FIG2, v), _MODEST),
    "integrate(tol)": (lambda v: integrate(_P0, _FIG2, 0.5, tol=v), _MODEST),
    "integrate(mass_tol)": (lambda v: integrate(_P0, _FIG2, 0.5, mass_tol=v), _ARGUMENT),
    "CharacteristicSolver(rates)": (lambda v: CharacteristicSolver(v, _H), _ARGUMENT),
    "CharacteristicSolver(t_max=)": (lambda v: CharacteristicSolver(_FIG2, _H, t_max=v), _ARGUMENT),
    "trace_back(x)": (lambda v: CharacteristicSolver(_FIG2, _H).trace_back(v, 0.5), _MODEST),
    "trace_back(t)": (lambda v: CharacteristicSolver(_FIG2, _H).trace_back(0.5, v), _MODEST),
    "solve_at(x)": (lambda v: CharacteristicSolver(_FIG2, _H).solve_at(v, 0.5), _MODEST),
    "solve_at(t)": (lambda v: CharacteristicSolver(_FIG2, _H).solve_at(0.5, v), _MODEST),
    "solve_grid(x)": (lambda v: CharacteristicSolver(_FIG2, _H).solve_grid(v, [0.0, 0.5]), _MODEST),
    "solve_grid(t)": (lambda v: CharacteristicSolver(_FIG2, _H).solve_grid([0.0, 0.5], v), _MODEST),
    "gf_eval(x)": (lambda v: gf_eval(_P0, v), _MODEST),
    "gf_eval(dist)": (lambda v: gf_eval(v, 0.5), _ARGUMENT),
    "DistributionTrajectory.at(t)": (lambda v: _TRAJ.at(v), _ARGUMENT),
    "InitialCondition.coefficients(k_max)": (lambda v: _H.coefficients(v), _MODEST),
    "InitialCondition.explicit(tail)": (lambda v: InitialCondition.explicit([0.5], v), _ARGUMENT),
    "InitialCondition.geometric(rho)": (lambda v: InitialCondition.geometric(v), _ARGUMENT),
    "InitialCondition.polynomial": (InitialCondition.polynomial, _ARGUMENT),
    "InitialCondition.delta": (InitialCondition.delta, _MODEST),
    "SteadyState(x)": (_STEADY, _ARGUMENT),
    "construct(anchor=)": (lambda v: construct(_TWO_SINGULARITY, anchor=v), _ARGUMENT),
    "steady_from_rates(rates)": (steady_from_rates, _ARGUMENT),
    "steady_from_rates(m)": (lambda v: steady_from_rates(ProcessRates(l_r=1.0, n_d=1.0, n_r=1.0, m=v)), _MODEST),
    "run(m)": (lambda v: run(SimConfig(ProcessRates(l_r=1.0, n_r=1.0, m=v), 10, (0.1,), 1)), _MODEST),
    "fit_rate(window=)": (lambda v: fit_rate(_SERIES, window=v), _ARGUMENT),
    "detect_bend(boundary=)": (lambda v: detect_bend(_SERIES, boundary=v), _ARGUMENT),
    "detect_bend(jump=)": (lambda v: detect_bend(_SERIES, jump=v), _ARGUMENT),
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_ENTRIES)).flatmap(lambda name: st.tuples(st.just(name), _ENTRIES[name][1])))
# each of these ended in a raw TypeError, ValueError, OverflowError or
# AttributeError before every number went through model.real,
# model.count or model.real_or_array
@example(("CharacteristicSolver(t_max=)", "a"))
@example(("trace_back(x)", "a"))
@example(("solve_grid(x)", "a"))
@example(("ClosedFormMoment(g0)", "a"))
@example(("ClosedFormMoment(n_d)", "a"))
@example(("integrate(t_end)", "a"))
@example(("integrate(p0)", "a"))
@example(("gf_eval(x)", "a"))
@example(("InitialCondition.geometric(rho)", "a"))
@example(("InitialCondition.polynomial", "a"))
@example(("InitialCondition.delta", "a"))
@example(("SteadyState(x)", "a"))
@example(("construct(anchor=)", "a"))
@example(("fit_rate(window=)", "a"))
@example(("detect_bend(jump=)", "a"))
@example(("CharacteristicSolver(t_max=)", 10**400))
@example(("trace_back(t)", 10**400))
@example(("ClosedFormMoment(g0)", 10**400))
@example(("ClosedFormMoment(n_d)", 10**400))
@example(("integrate(t_end)", 10**400))
@example(("InitialCondition.geometric(rho)", 10**400))
@example(("explicit_constants(c1)", 10**400))
@example(("CharacteristicSolver(rates)", "a"))
@example(("integrate(rates)", "a"))
@example(("steady_from_rates(rates)", "a"))
@example(("InitialCondition.delta", 2.5))
@example(("steady_from_rates(m)", 10**400))
@example(("run(m)", 10**400))
# numpy parses these as numbers, and the queries used to answer them
@example(("trace_back(x)", "0.5"))
@example(("trace_back(t)", "0.5"))
@example(("solve_at(x)", b"0.5"))
@example(("solve_at(t)", "0.5"))
@example(("gf_eval(x)", ["0.5"]))
# scipy quietly raised this to 2.2e-14, with a UserWarning
@example(("integrate(tol)", 1e-20))
def test_a_numeric_argument_works_or_raises_a_degreeflow_error(case):
    name, value = case
    try:
        _ENTRIES[name][0](value)
    except DegreeFlowError:
        return
    # text is not a number, alone or in a list, although numpy parses "0.5"
    assert not any(isinstance(e, (str, bytes)) for e in (value if isinstance(value, list) else [value]))


# for the invalid inputs, so that most runs get past parsing; hypothesis
# favours the ends of a range, so the rare value sits inside it
_RARELY = st.integers(0, 9).map(lambda i: i == 7)


@st.composite
def _cli_cases(draw):
    """A small experiment file, without its [output] section, and command-line overrides."""
    m = draw(st.integers(0, 4))
    kind = "delta" if draw(_RARELY) else draw(st.sampled_from(("polynomial", "geometric", "explicit")))
    lines = ["[rates]", *(f"{name} = {draw(_RATE)!r}" for name in _PROCESSES), f"m = {m}",
             "[initial]", f"kind = {kind}"]
    rho = draw(st.floats(1.2, 6.0))
    if kind == "geometric":
        lines.append(f"rho = {rho!r}")
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(lambda w: sum(w) > 0.0)))
        a = draw(st.floats(0.05, 1.0)) if kind == "explicit" else 0.0
        tail = a * rho ** (1 - w.size) / (rho - 1.0)  # the mass of a rho^-k over k >= len(w)
        if tail >= 1.0:
            a = tail = 0.0
        lines.append("coeffs = " + ", ".join(repr(float(v)) for v in (1.0 - tail) * w / w.sum()))
        if a:
            lines += [f"rho = {rho!r}", f"a = {a!r}"]
    k_max = draw(st.integers(m + 2, 40))
    times = sorted(set(draw(st.lists(st.floats(0.0, 0.2), min_size=1, max_size=3))))
    graph = draw(st.sampled_from(("regular", "erdos")))
    lines += ["[grid]", f"x_min = {draw(st.sampled_from((-1.0, -0.5, 0.0)))!r}",
              f"x_max = {draw(st.sampled_from((0.5, 1.0)))!r}", f"x_points = {draw(st.integers(2, 7))}",
              f"t_max = {draw(st.floats(0.1, 3.0))!r}", f"t_points = {draw(st.integers(1, 5))}",
              "[oracle]", f"k_max = {k_max}",
              "[mc]", f"nodes = {draw(st.integers(5, 40))}", f"replicas = {draw(st.integers(1, 2))}",
              f"seed = {draw(st.integers(0, 1000))}", f"graph = {graph}",
              f"graph_degree = {draw(st.sampled_from((2.0, 4.0)) if graph == 'regular' else st.floats(1.0, 4.0))!r}", f"k_max = {draw(st.integers(2, k_max))}",
              "sample_times = " + ", ".join(repr(v) for v in times),
              "[analysis]", f"fit_t_min = {draw(st.sampled_from((0.1, 1.0)))!r}"]
    if draw(_RARELY):
        lines += draw(st.sampled_from((["bend = 0.1"], ["[solver]", "tol = 1e-8"])))  # [analysis] bend, [solver]
    args = []
    if draw(st.booleans()):
        args += ["--seed", str(draw(st.integers(-2, 50)))]
    if draw(_RARELY):
        args += ["--kmax", str(draw(st.integers(1, 40)))]
    if draw(_RARELY):
        args += ["--constants", draw(st.sampled_from(("2,1,1,2,3", "1,2,3", "2,1,1,nan,3", "0.5,0.2,1,1,2")))]
    if draw(_RARELY):
        args += ["--tol", "1e-8"]
    return "\n".join(lines) + "\n", args


# 20 draws take about 3 s.  The derandomized draws from 15 on include a
# rate set with c1 = c2, whose stationary profile has an irregular singular
# point at x = 1; an ODE solve toward it is stiff, and with DOP853 the 20
# draws took 115 s.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_cli_cases())
# found by this test, unrandomized: the mc reference to a sample time of
# 2.5e-165 never returned, since LSODA looped on so short a span
@example(("[rates]\nl_r = 1\n[initial]\ncoeffs = 0, 0, 1\n[grid]\nx_points = 2\nt_points = 1\n"
          "[mc]\nnodes = 10\nreplicas = 1\nsample_times = 2.5e-165\nk_max = 10\n", []))
# rates whose steady-constant identity cancels terms near 4.2e6 down to
# 4.522: steady and compare once ended in a raw AssertionError
@example(("[rates]\nomega_p = 2079.315\nl_d = 6.459\nl_r = 2.261\nl_p = 6457.002\nm = 1\n"
          "[initial]\ncoeffs = 0, 0, 1\n[grid]\nx_points = 3\nt_points = 2\n"
          "[mc]\nnodes = 10\nreplicas = 1\nsample_times = 0.05\nk_max = 10\n", []))
def test_cli_exits_with_a_documented_code(case):
    body, args = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/exp.ini"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body + f"[output]\ndir = {tmp}/out\n")
        for command in ("solve", "steady", "ode", "mc", "compare"):
            assert main([command, "--config", path, *args]) in (0, 1, 2, 3)
