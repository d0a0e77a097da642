"""Rate validation, derived coefficients, and the H identity."""

import math

import numpy as np
import pytest

from degreeflow import model
from degreeflow.errors import AccuracyError, DomainError, NoSteadyStateError, ValidationError
from degreeflow.model import (
    ProcessRates,
    SteadyConstants,
    coefficients,
    derive_riccati,
    steady_constants,
)
from pde_reference import evaluate_H

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)


def test_rates_reject_negative():
    with pytest.raises(ValidationError):
        ProcessRates(omega_r=-0.5, omega_p=0, l_d=0, l_r=0, l_p=0,
                     n_d=0, n_r=0, n_p=0, m=0)


@pytest.mark.parametrize("value", ["a", None, [1], 10**400])
def test_rates_reject_what_is_not_a_finite_real_number(value):
    # each of these used to raise a raw TypeError, or for the int past the
    # float range an OverflowError, from math.isfinite; the message cuts
    # the value's repr, which for 10**400 has 401 digits
    with pytest.raises(ValidationError, match="omega_r") as info:
        ProcessRates(omega_r=value)
    assert len(str(info.value)) < 100


def test_rates_reject_negative_m():
    with pytest.raises(ValidationError):
        ProcessRates(omega_r=1, omega_p=0, l_d=0, l_r=0, l_p=0,
                     n_d=0, n_r=0, n_p=0, m=-1)


def test_riccati_coefficients_reference_set():
    # b = l_d + n_p + n_r, c = 2*(l_p + l_r + m*(n_p + n_r))
    co = derive_riccati(FIG2)
    assert co.n_d == 1.0
    assert co.b == 3.0
    assert co.c == 14.0


def test_riccati_coefficients_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(0, 3, 8)
        m = int(rng.integers(0, 4))
        r = ProcessRates(*v, m=m)
        co = derive_riccati(r)
        assert co.n_d == pytest.approx(r.n_d)
        assert co.b == pytest.approx(r.l_d + r.n_p + r.n_r)
        assert co.c == pytest.approx(2 * (r.l_p + r.l_r + m * (r.n_p + r.n_r)))


def test_H_vanishes_at_normalization_point():
    # H(a, 1, 1, t) = 0 for any slope a, any time, any rates and moment
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.uniform(0, 2, 8)
        m = int(rng.integers(0, 5))
        r = ProcessRates(*v, m=m)
        g = lambda t: 1.0 + 0.5 * t  # arbitrary positive trajectory
        a = rng.uniform(-5, 5)
        t = rng.uniform(0, 3)
        assert abs(evaluate_H(a, 1.0, 1.0, t, r, g)) < 1e-12


def test_H_inhomogeneous_term():
    # with a = b = 0 only the source survives: (n_r + n_p) * x**m
    g = lambda t: 2.0
    for x in (-0.7, 0.0, 0.4, 1.0):
        val = evaluate_H(0.0, 0.0, x, 0.3, FIG2, g)
        assert val == pytest.approx(2.0 * x**3, abs=1e-14)


def test_steady_constants_reference_set():
    sc = steady_constants(FIG2)
    g_inf = (-3.0 + math.sqrt(65.0)) / 2.0
    assert sc.g_inf == pytest.approx(g_inf, abs=1e-14)
    assert sc.c1 == pytest.approx(1.0 + 3.0 / g_inf, abs=1e-12)
    assert sc.c2 == pytest.approx(3.0 + g_inf, abs=1e-12)
    assert sc.c3 == pytest.approx(g_inf + 2.0 + 3.0, abs=1e-12)
    assert sc.c4 == 2.0


def test_steady_constants_identity():
    # g_inf*(c4 + c2 - c1) = c3 + c4*m ties the slope to the first moment
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        v = rng.uniform(0, 2, 8)
        m = int(rng.integers(0, 5))
        sc = steady_constants(ProcessRates(*v, m=m))
        if sc.g_inf == 0.0:
            continue
        lhs = sc.g_inf * (sc.c4 + sc.c2 - sc.c1)
        rhs = sc.c3 + sc.c4 * m
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        checked += 1


# g_inf (c4 + c2 - c1) cancels two terms near 4.2e6 down to 4.522: scaled by
# the result, the rounding of those terms once raised a raw AssertionError
CANCELLING = ProcessRates(omega_p=2079.315, l_d=6.459, l_r=2.261, l_p=6457.002, m=1)


def test_steady_constants_identity_scales_with_the_cancelled_terms():
    sc = steady_constants(CANCELLING)
    assert sc.c3 + sc.c4 * CANCELLING.m == 4.522


def test_steady_constants_identity_still_catches_a_wrong_constant(monkeypatch):
    # c1 off by a relative 1e-8 breaks the identity far beyond its rounding
    exact = model.coefficients

    def off(rates, g):
        k = exact(rates, g)
        return k._replace(A=k.A * (1 + 1e-8))

    monkeypatch.setattr(model, "coefficients", off)
    for rates in (CANCELLING, FIG2):
        with pytest.raises(AccuracyError, match="steady-constant identity violated"):
            steady_constants(rates)


def test_degeneracy_tags():
    # a dying network keeps its constants, at g_inf = 0; a diverging first
    # moment fixes none
    only_decay = ProcessRates(0, 0, 1, 0, 0, 0, 0, 0, 0)
    assert steady_constants(only_decay) == SteadyConstants(0.0, 0.0, 1.0, 0.0, 0.0, 0)
    only_growth = ProcessRates(0, 0, 0, 1, 0, 0, 0, 0, 0)
    with pytest.raises(NoSteadyStateError, match="the first moment grows without bound"):
        steady_constants(only_growth)
    assert steady_constants(FIG2).g_inf > 0.0


def test_coefficients_as_the_moment_vanishes():
    # without preferential attachment A has no 1/g term and stays finite
    # where a dying network's moment underflows to 0; with it, a moment
    # whose square underflows is a DomainError, not a ZeroDivisionError
    k = coefficients(ProcessRates(omega_p=0.5, l_d=1.0), 0.0)
    assert (k.A, k.A_g, k.B) == (0.5, 0.0, 1.5)
    for g in (5e-324, 1e-170, 0.0):
        with pytest.raises(DomainError):
            coefficients(ProcessRates(l_p=1.0), g)
