"""Stationary profiles: classification, construction, and certification."""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from degreeflow import steady
from degreeflow.errors import NoSteadyStateError, ValidationError
from degreeflow.model import ProcessRates, steady_constants
from degreeflow.steady import (
    SteadyCaseTag,
    classify,
    construct,
    explicit_constants,
    residual,
    steady_from_rates,
)

# reference constants with singular points at 1/2 and 1
REF = explicit_constants(2.0, 1.0, 1.0, 2.0, 3)
# two-singularity rate sets with interior exponents alpha = 7 and alpha ~ 33.7
ALPHA7 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=1, l_p=0,
                      n_d=0, n_r=0, n_p=2, m=3)
ALPHA34 = ProcessRates(omega_r=0, omega_p=0, l_d=1.92, l_r=0, l_p=0.8,
                       n_d=0, n_r=0.84, n_p=1.26, m=1)
# series-seeded rate sets: c1 = 0, c2 > c1, and c1 = c2, where x = 1 is a
# double root of the derivative prefactor
FIG7 = ProcessRates(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=0, m=3)
FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)
DOUBLE_ROOT = ProcessRates(omega_p=0.5055492059996985, n_r=1.9330585886194032, m=2)
# G* at 30 digits on 11 points of six constant sets (tests/stationary_reference.py)
REFERENCE = json.loads((Path(__file__).parent / "stationary_reference.json").read_text(encoding="utf-8"))
# the table CharacteristicSolver.solve_difference_grid builds
TABLE_X = np.linspace(-1.0 - 2e-3, 1.0, 4097)


def _grid_away_from_singular(case, n=101, margin=1e-3):
    xs = np.linspace(-1, 1, n)
    keep = np.ones(n, bool)
    for s in case.singular_points:
        keep &= np.abs(xs - s) > margin
    return xs[keep]


def test_reference_constants_classification():
    case = classify(REF)
    assert case.tag is SteadyCaseTag.TWO_SINGULARITY
    assert case.singular_points == (0.5, 1.0)


def test_reference_profile_values():
    st = construct(REF)
    # value at the interior singular point has the closed form
    # c4 xi^m / (c4 + (1 - xi) c3) = 0.25 / 2.5
    assert st(0.5) == pytest.approx(0.1, abs=1e-9)
    assert st.value_at_ratio == st(0.5)
    assert st(1.0) == pytest.approx(1.0, abs=1e-12)
    assert st.slope_at_one == pytest.approx(7.0, abs=1e-9)
    assert st.certified


# alpha = 0.1 with c3 = 0 and m = 0, where G* = 1 exactly
@pytest.mark.parametrize("constants, tag", [
    (REF, SteadyCaseTag.TWO_SINGULARITY),
    (steady_constants(ALPHA7), SteadyCaseTag.TWO_SINGULARITY),
    (steady_constants(ALPHA34), SteadyCaseTag.TWO_SINGULARITY),
    (explicit_constants(2.0, 0.5, 0.0, 0.15, 0), SteadyCaseTag.TWO_SINGULARITY),
    (steady_constants(FIG2), SteadyCaseTag.SERIES_SEEDED),
    (steady_constants(FIG7), SteadyCaseTag.SERIES_SEEDED),
    (steady_constants(DOUBLE_ROOT), SteadyCaseTag.SERIES_SEEDED),
    # xi = 1 - 5e-10: the ties around xi and 1 overlap, so no point lies between them
    (explicit_constants(1.0, 1.0 - 5e-10, 0.5, 0.3, 2), SteadyCaseTag.TWO_SINGULARITY),
], ids=["REF", "alpha7", "alpha34", "alpha0.1", "FIG2", "FIG7", "double_root", "xi_in_the_tie_of_one"])
def test_reference_profile_residual(constants, tag):
    st = construct(constants)
    assert st.case.tag is tag
    xs = _grid_away_from_singular(st.case, n=201)
    assert np.max(np.abs(residual(st, constants, xs))) <= 1e-6
    # the quadrature mesh does not depend on the query points
    batch = st(TABLE_X)
    assert all(st(float(x)) == v for x, v in zip(TABLE_X[::8], batch[::8]))


def test_residual_detects_wrong_profile():
    st = construct(REF)
    off = explicit_constants(2.0, 1.0, 1.05, 2.0, 3)
    xs = _grid_away_from_singular(classify(REF))
    assert np.max(np.abs(residual(st, off, xs))) > 1e-3


def test_anchor_independence():
    st_a = construct(REF)
    st_b = construct(REF, anchor=0.7)
    xs = np.linspace(-1, 1, 201)
    assert np.max(np.abs(st_a(xs) - st_b(xs))) < 1e-8


def test_anchor_applies_only_to_the_two_singularity_case():
    # an anchor the construction ignored would make the independent
    # reference a second build of the same profile
    for constants, case in ((steady_constants(FIG2), "series_seeded"),
                            (explicit_constants(1.0, 2.0, 1.0, 0.0, 0), "family"),
                            (explicit_constants(0.0, 0.0, 1.0, 1.0, 0), "algebraic")):
        with pytest.raises(ValidationError, match=case):
            construct(constants, anchor=0.7)
    with pytest.raises(ValidationError, match="anchor must lie in"):
        construct(REF, anchor=0.4)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_profile_matches_the_mpmath_integral(name):
    # 30-digit values of Duhamel's integral, from x = -1 to 1 - 3e-12.  The
    # former two-singularity kernel was off by 1.1e-7 at 1 - x = 1e-10 and
    # 4.5e-7 at 3e-12 on criterion 5's constants, the former series-seeded
    # ODE solve by up to 8e-13.  The largest error measured for the bound
    # was 1.03e-15, on the c1 = c2 set at x = 0.3.
    ref = REFERENCE[name]
    st = construct(explicit_constants(*ref["constants"]))
    got = st(np.array(ref["x"]))
    assert np.max(np.abs(got - np.array([float(g) for g in ref["G"]]))) <= 2e-15
    # the domain ends at 1 + 1e-12, which rounds to 1 + 1.00009e-12
    assert st(1.0) == 1.0 and st(1.0 + 1e-12) == 1.0


def test_profiles_need_no_ode_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a c4 > 0 profile called an ODE solver")

    monkeypatch.setattr(steady, "solve_ivp", refuse)
    for st in (construct(REF), steady_from_rates(ALPHA7), steady_from_rates(FIG2), steady_from_rates(FIG7),
               steady_from_rates(DOUBLE_ROOT)):
        assert np.all(np.isfinite(st(TABLE_X)))
        assert np.all(np.isfinite(st.derivative(TABLE_X)))
        assert st.certified


@pytest.mark.parametrize("args, bad", [
    ((1.0, 2.0, 1.0, 1.0, True), "m"),
    ((1.0, 2.0, 1.0, 1.0, 1.5), "m"),
    (("a", 2.0, 1.0, 1.0, 1), "c1"),
    ((1.0, None, 1.0, 1.0, 1), "c2"),
    ((1.0, 2.0, float("nan"), 1.0, 1), "c3"),
    ((1.0, 2.0, 1.0, -1.0, 1), "c4"),
    ((10**400, 2.0, 1.0, 1.0, 1), "c1"),  # an int past the float range raised a raw OverflowError
])
def test_explicit_constants_reject_what_is_not_a_constant(args, bad):
    with pytest.raises(ValidationError, match=f"^{bad} must be"):
        explicit_constants(*args)


def test_two_singularity_from_rates():
    st = steady_from_rates(ALPHA7)
    assert st.case.tag is SteadyCaseTag.TWO_SINGULARITY
    # slope equals the stationary mean degree 14/3
    assert st.slope_at_one == pytest.approx(14.0 / 3.0, rel=1e-12)


def test_series_seeded_from_rates():
    r = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                     n_d=1, n_r=1, n_p=1, m=3)
    st = steady_from_rates(r)
    assert st.case.tag is SteadyCaseTag.SERIES_SEEDED
    assert st.slope_at_one == pytest.approx(2.5311288741492746, rel=1e-12)
    assert st.certified
    assert st(1.0) == pytest.approx(1.0, abs=1e-9)
    # a generating function of a distribution stays within [-1, 1] there
    xs = np.linspace(-1, 1, 41)
    vals = st(xs)
    assert np.all(np.abs(vals) <= 1.0 + 1e-9)


def test_double_root_at_one_is_built_in_under_a_second():
    # c1 = c2 makes x = 1 a double root of c1 x - c2, an irregular singular
    # point: the backward characteristics approach it only algebraically,
    # and an ODE solve toward it is stiff (DOP853 took 14 s on these rates)
    r = ProcessRates(omega_p=0.5055492059996985, n_r=1.9330585886194032, m=2)
    c = steady_constants(r)
    assert c.c1 == c.c2
    start = time.perf_counter()
    st = steady_from_rates(r)
    assert time.perf_counter() - start < 1.0
    assert st.case.tag is SteadyCaseTag.SERIES_SEEDED
    assert st.certified
    # the slope at 1 is the stationary mean degree
    assert st.slope_at_one == pytest.approx(c.g_inf, rel=1e-12)
    assert np.all(np.abs(st(np.linspace(-1, 1, 41))) <= 1.0 + 1e-9)


def test_series_seeded_second_rate_set():
    st = steady_from_rates(FIG7)
    assert st.case.tag is SteadyCaseTag.SERIES_SEEDED
    assert st.slope_at_one == pytest.approx(2.0, rel=1e-12)


def test_algebraic_closed_form():
    # pure uniform attachment: G_star = 1 / (3 - 2 x)
    r = ProcessRates(0, 0, 0, 1, 0, 0, 1, 0, 0)
    st = steady_from_rates(r)
    assert st.case.tag is SteadyCaseTag.ALGEBRAIC
    for x in (-1.0, 0.0, 0.5, 0.99):
        assert st(x) == pytest.approx(1.0 / (3.0 - 2.0 * x), rel=1e-12)
    assert st.slope_at_one == pytest.approx(2.0)


def test_constants_only_profile():
    r = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1,
                     n_d=1, n_r=0, n_p=0, m=3)
    st = steady_from_rates(r)
    assert st.case.tag is SteadyCaseTag.CONSTANTS_ONLY
    xs = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(st(xs), 1.0, atol=1e-12)


def test_uniform_limit_profile():
    # only deletion: everything drains to the empty network
    st = steady_from_rates(ProcessRates(0, 0, 1, 0, 0, 0, 0, 0, 0))
    assert st.case.tag is SteadyCaseTag.UNIFORM_LIMIT
    np.testing.assert_allclose(st(np.linspace(-1, 1, 7)), 1.0, atol=1e-12)
    assert st.slope_at_one == 0.0


def test_divergent_growth_has_no_profile():
    with pytest.raises(NoSteadyStateError):
        steady_from_rates(ProcessRates(0, 0, 0, 1, 0, 0, 0, 0, 0))


def test_divergent_constants_have_no_case():
    divergent = steady_constants(ProcessRates(0, 0, 0, 1, 0, 0, 0, 0, 0))
    for build in (classify, construct):
        with pytest.raises(ValidationError, match="only defined for a regular first moment"):
            build(divergent)


@pytest.mark.parametrize("args, tag, singular, value", [
    ((0.0, 0.0, 0.0, 0.0, 0), SteadyCaseTag.ALL_ZERO, (), 1.0),
    ((0.0, 0.0, 1.0, 0.0, 0), SteadyCaseTag.ZERO_ONLY, (), 0.0),
    ((2.0, 1.0, 1.0, 0.0, 0), SteadyCaseTag.ZERO_ONLY, (0.5, 1.0), 0.0),
], ids=["all-zero", "zero-only", "zero-only-c1-above-c2"])
def test_constants_without_a_unique_profile_give_a_flagged_representative(args, tag, singular, value):
    constants = explicit_constants(*args)
    case = classify(constants)
    assert (case.tag, case.singular_points) == (tag, singular)
    st = construct(constants)
    assert st.case == case
    np.testing.assert_array_equal(st(np.linspace(-1, 1, 5)), value)
    # a zero slope is not pinned: the representative is never certified
    assert (st.value_at_one, st.slope_at_one, st.certified) == (value, 0.0, False)


def test_resonant_exponent_leaves_slope_open():
    # interior exponent exactly 1: the slope cannot be certified
    r = ProcessRates(0, 0, 0, 0, 1, 0, 0, 1, 0)
    st = steady_from_rates(r)
    assert st.case.tag is SteadyCaseTag.TWO_SINGULARITY
    assert st.slope_at_one is None
    assert not st.certified


def test_derivative_matches_closed_form():
    r = ProcessRates(0, 0, 0, 1, 0, 0, 1, 0, 0)
    st = steady_from_rates(r)
    for x in (-1.0, -0.5, 0.0, 0.9):
        exact = 2.0 / (3.0 - 2.0 * x) ** 2
        assert st.derivative(x) == pytest.approx(exact, rel=1e-7)
    # boundary uses a one-sided stencil
    assert st.derivative(1.0) == pytest.approx(2.0, rel=1e-6)


def test_derivative_near_interior_singularity():
    st = construct(REF)
    # just left of the interior singular point the profile is smooth from
    # the left; the one-sided stencil must stay finite and consistent
    x = 0.5 - 5e-5
    d = st.derivative(x)
    fd = (st(x) - st(x - 1e-7)) / 1e-7
    assert d == pytest.approx(fd, rel=5e-3)
    # the stencils near xi and x = 1 stay on their side and inside [-1, 1]
    assert np.all(np.isfinite(steady_from_rates(ALPHA7).derivative(TABLE_X)))


def test_profile_rejects_points_outside_domain():
    for st in (construct(REF), steady_from_rates(ALPHA7), steady_from_rates(FIG7)):
        for x in (1.0 + 1e-6, -1.0 - 6e-3, np.nan):
            with pytest.raises(ValidationError):
                st(x)
            with pytest.raises(ValidationError):
                st.derivative(np.array([0.0, x]))
        assert np.isfinite(st.derivative(-1.0 - 5e-3))


def test_certificate_rejects_a_profile_that_misses_its_equation():
    # the slope at 1 stays pinned and G*(1) stays 1, but the profile no
    # longer solves its equation: a 1e-3 relative error must not certify
    constants = explicit_constants(1.0, 2.0, 1.0, 0.0, 0)
    st = construct(constants)
    assert st.case.tag is SteadyCaseTag.FAMILY
    assert st.certified
    off = replace(st, _eval=lambda x, f=st._eval: f(x) * (1.0 + 1e-3 * (1.0 - x)))
    assert off.value_at_one == 1.0 and off.slope_at_one == st.slope_at_one
    assert not off.certified


@pytest.mark.parametrize("m", range(5))
def test_residual_follows_small_interior_exponent(m):
    # alpha ~ 0.29 < 1: near x = 1 the (1-x)^alpha term bends faster than a
    # fixed 1e-4 central difference can follow, so a correct profile must
    # not be reported as missing its equation
    constants = explicit_constants(2.7597, 0.10922, 2.3323, 0.77834, m)
    st = construct(constants)
    assert st.case.tag is SteadyCaseTag.TWO_SINGULARITY
    xs = _grid_away_from_singular(st.case, n=201)
    assert np.max(np.abs(residual(st, constants, xs))) <= 1e-6
