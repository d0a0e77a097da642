"""First-moment trajectories: closed forms and the gap."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from degreeflow.errors import DomainError, NoSteadyStateError, ValidationError
from degreeflow.model import ProcessRates, derive_riccati
from degreeflow.riccati import ClosedFormMoment, RiccatiCoefficients, equilibrium

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)


def _literal(coeffs, g0, ts):
    # independent route: integrate g' = -n_d g^2 - b g + c directly
    def rhs(t, y):
        return [-coeffs.n_d * y[0] ** 2 - coeffs.b * y[0] + coeffs.c]

    sol = solve_ivp(rhs, (0.0, float(ts[-1])), [g0], method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=ts)
    assert sol.success
    return sol.y[0]


def test_logistic_reference_values():
    g = ClosedFormMoment(derive_riccati(FIG2), 2.0)
    assert g(0.0) == pytest.approx(2.0, abs=1e-15)
    # hand-computed from the logistic solution with roots of s^2 + 3 s - 14
    assert g(0.5) == pytest.approx(2.521046657155834, abs=1e-12)
    assert g.equilibrium == pytest.approx((-3.0 + math.sqrt(65.0)) / 2.0, abs=1e-14)


def test_logistic_against_literal_integration():
    co = derive_riccati(FIG2)
    g = ClosedFormMoment(co, 2.0)
    ts = np.linspace(0.01, 3.0, 40)
    ref = _literal(co, 2.0, ts)
    assert np.max(np.abs(g(ts) - ref)) < 1e-9


def test_double_root_branch():
    # n_d > 0 with b = c = 0 decays as g0 / (1 + n_d g0 t)
    co = RiccatiCoefficients(n_d=1.0, b=0.0, c=0.0)
    g = ClosedFormMoment(co, 1.5)
    ts = np.linspace(0.0, 4.0, 17)
    assert np.max(np.abs(g(ts) - 1.5 / (1.0 + 1.5 * ts))) < 1e-14
    assert g.equilibrium == 0.0


def test_linear_decay_branch():
    co = RiccatiCoefficients(n_d=0.0, b=1.0, c=2.0)
    g = ClosedFormMoment(co, 5.0)
    ts = np.linspace(0.0, 6.0, 25)
    exact = 2.0 + 3.0 * np.exp(-ts)
    assert np.max(np.abs(g(ts) - exact)) < 1e-13
    assert g.equilibrium == pytest.approx(2.0)


def test_affine_branch_diverges():
    co = RiccatiCoefficients(n_d=0.0, b=0.0, c=2.0)
    g = ClosedFormMoment(co, 0.5)
    assert g(3.0) == pytest.approx(6.5, abs=1e-14)
    assert math.isinf(g.equilibrium)
    with pytest.raises(DomainError):
        g.gap(1.0)


def test_constant_branch():
    # the rates conserve g: it stays at g0, which is its limit
    co = RiccatiCoefficients(n_d=0.0, b=0.0, c=0.0)
    g = ClosedFormMoment(co, 1.25)
    assert g(10.0) == 1.25
    assert g.equilibrium == 1.25
    assert g.gap(10.0) == 0.0


# trajectories covering every form of ClosedFormMoment, g0 on the equilibrium ("constant") and
# rates that conserve g
BRANCHES = {
    "constant": (derive_riccati(FIG2), (-3.0 + math.sqrt(65.0)) / 2.0),
    "double_root": (RiccatiCoefficients(n_d=1.0, b=0.0, c=0.0), 1.5),
    "logistic": (derive_riccati(FIG2), 2.0),
    "linear_decay": (RiccatiCoefficients(n_d=0.0, b=1.0, c=2.0), 5.0),
    "affine": (RiccatiCoefficients(n_d=0.0, b=0.0, c=2.0), 0.5),
    "conserved": (RiccatiCoefficients(n_d=0.0, b=0.0, c=0.0), 1.25),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_float_argument_matches_the_array_path(branch):
    # one number t (np.float64 and a 0-d array included) is evaluated with
    # math and gives a float; math.exp and np.exp may differ in the last
    # bit, which the gap carries through a product and a quotient (3 ulp
    # seen on a fine t grid)
    g = ClosedFormMoment(*BRANCHES[branch])
    for t in (0.0, 0.3, 5.0, 50.0):
        on_array = float(g(np.array([t]))[0])
        on_gap_array = float(g.gap(np.array([t]))[0]) if branch != "affine" else None
        for arg in (t, np.float64(t), np.array(t)):
            value = g(arg)
            assert type(value) is float
            assert abs(value - on_array) <= 2 * math.ulp(on_array)
            if on_gap_array is not None:
                gap = g.gap(arg)
                assert type(gap) is float
                assert abs(gap - on_gap_array) <= 4 * math.ulp(on_gap_array)


@pytest.mark.parametrize("branch", sorted(set(BRANCHES) - {"affine"}))
def test_at_infinite_time_g_is_the_equilibrium(branch):
    # in the Bernoulli form, 0 x inf (n_d = 0) and exp(-0 x inf) (b = 0)
    # would read nan at t = inf; each of its cases keeps only its own term
    g = ClosedFormMoment(*BRANCHES[branch])
    assert g(math.inf) == g.equilibrium and g.gap(math.inf) == 0.0
    ts = np.array([0.0, 1.0, math.inf])
    assert g(ts)[-1] == g.equilibrium and g.gap(ts)[-1] == 0.0
    assert np.all(np.isfinite(g(ts))) and g(ts)[0] == g.g0


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_a_negative_time_is_a_validation_error(branch):
    # g is a trajectory forward from g(0); far back the logistic form
    # overflowed, as a raw OverflowError from math.exp on a float and as
    # nan with warnings on an array.  Both paths refuse any t < 0, and the
    # gap and the derivative with them; t = 0 still answers.
    g = ClosedFormMoment(*BRANCHES[branch])
    calls = [g, g.derivative] + ([g.gap] if branch != "affine" else [])
    for t in (-1000.0, -1e-300, np.array([-1000.0]), np.array([0.0, 1.0, -0.5])):
        for call in calls:
            with pytest.raises(ValidationError, match="t must be >= 0"):
                call(t)
    assert g(0.0) == g(np.array([0.0]))[0] == g.g0


def test_rejects_nonpositive_start():
    co = derive_riccati(FIG2)
    for g0 in (0.0, -1.0):
        with pytest.raises(DomainError):
            ClosedFormMoment(co, g0)


def test_derivative_satisfies_equation():
    co = derive_riccati(FIG2)
    g = ClosedFormMoment(co, 2.0)
    ts = np.linspace(0.0, 3.0, 13)
    lhs = g.derivative(ts)
    gs = g(ts)
    rhs = -co.n_d * gs**2 - co.b * gs + co.c
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gap_matches_subtraction_when_accurate():
    g = ClosedFormMoment(derive_riccati(FIG2), 2.0)
    for t in (0.0, 0.25, 0.5, 1.0):
        direct = g(t) - g.equilibrium
        assert g.gap(t) == pytest.approx(direct, abs=1e-12)


NEAR_TIE = derive_riccati(ProcessRates(omega_r=1, l_d=1, l_r=1.3, n_d=1, n_r=1, m=3))


@pytest.mark.parametrize("co, g0", [
    (derive_riccati(FIG2), 2.0),
    # g0 within 1e-12 of g_inf: the gap still decays at sigma
    (NEAR_TIE, equilibrium(NEAR_TIE) * (1.0 + 3e-13)),
], ids=["fig2", "near_tie"])
def test_gap_keeps_relative_accuracy_late(co, g0):
    # subtraction dies at machine epsilon; the gap keeps the exponential law
    g = ClosedFormMoment(co, g0)
    sigma = math.sqrt(co.b**2 + 4.0 * co.n_d * co.c)
    for t in (2.0, 3.0):
        ratio = g.gap(t) / g.gap(t + 1.0)
        assert math.log(abs(ratio)) == pytest.approx(sigma, abs=1e-5)
    late = g.gap(50.0)
    assert late != 0.0
    assert abs(late) < 1e-100


def test_equilibrium_function_branches():
    assert equilibrium(RiccatiCoefficients(0.0, 2.0, 8.0)) == pytest.approx(4.0)
    assert equilibrium(RiccatiCoefficients(1.0, 0.0, 0.0)) == 0.0
    assert math.isinf(equilibrium(RiccatiCoefficients(0.0, 0.0, 3.0)))
    # conserved g: its limit is g(0), which the coefficients do not fix
    with pytest.raises(NoSteadyStateError):
        equilibrium(RiccatiCoefficients(0.0, 0.0, 0.0))
    # cancellation-free root: b dominant, tiny n_d*c
    val = equilibrium(RiccatiCoefficients(1e-12, 1.0, 1.0))
    assert val == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("co", [
    RiccatiCoefficients(1.0, 1e200, 1.0),  # b^2 overflows
    RiccatiCoefficients(1e300, 1.0, 1e300),  # 4 n_d c overflows
])
def test_equilibrium_refuses_an_overflowed_discriminant(co):
    # sqrt(inf) would put the root at 0, a network that dies out
    with pytest.raises(DomainError, match="the closed-form moment overflowed for these rates"):
        equilibrium(co)


def test_equilibrium_keeps_the_largest_finite_discriminant():
    # b^2 = 2**1022 and 4 n_d c = 2**1022 sum to 2**1023, still finite
    co = RiccatiCoefficients(1.0, 2.0**511, 2.0**1020)
    assert equilibrium(co) == 2.0 * 2.0**1020 / (2.0**511 + math.sqrt(2.0**1023))
