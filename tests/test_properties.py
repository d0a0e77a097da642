"""Property tests of the characteristic transport, the master-equation oracle, the simulator's config and the CLI over drawn inputs.

Every case either raises a DegreeFlowError or meets the solver's
invariants, every simulator config either constructs or raises
ValidationError, and every CLI run ends in a documented exit code.  The draws
are derandomized, so the suite sees the same cases on every run.
"""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from degreeflow.characteristics import CharacteristicSolver  # noqa: E402
from degreeflow.cli import main  # noqa: E402
from degreeflow.degree_ode import integrate  # noqa: E402
from degreeflow.errors import DegreeFlowError, ValidationError  # noqa: E402
from degreeflow.graphsim import SimConfig  # noqa: E402
from degreeflow.initial import InitialCondition  # noqa: E402
from degreeflow.model import ProcessRates  # noqa: E402

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
@example((ProcessRates(n_p=1.0, m=1), InitialCondition.geometric(rho=1.21875, a=0.1794871794871795),
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
# rate set with c1 = c2, whose series-seeded stationary profile integrates a
# stiff irregular singular point at x = 1; with DOP853 rather than LSODA
# there, the 20 draws took 115 s.
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
