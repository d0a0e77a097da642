"""Property tests of the characteristic transport and the master-equation oracle over drawn rate sets.

Every case either raises a DegreeFlowError or meets the solver's
invariants.  The draws are derandomized, so the suite sees the same cases
on every run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from degreeflow.characteristics import CharacteristicSolver  # noqa: E402
from degreeflow.degree_ode import integrate  # noqa: E402
from degreeflow.errors import DegreeFlowError  # noqa: E402
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
