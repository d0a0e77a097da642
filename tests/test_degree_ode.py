"""Truncated degree-distribution system and its generating-function views."""

import numpy as np
import pytest
from scipy.linalg import expm

from degreeflow import degree_ode
from degreeflow.degree_ode import (
    _Generator,
    first_moment,
    gf_eval,
    integrate,
    master_rhs,
)
from degreeflow.errors import DomainError, IntegrationError, TruncationError, ValidationError
from degreeflow.initial import InitialCondition
from degreeflow.model import ProcessRates, derive_riccati
from degreeflow.riccati import solve_closed_form

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)


def test_rhs_reference_point():
    # preferential link creation only, everything at degree 2:
    # flux (k-1)p_{k-1} - k p_k scaled by 2 l_p / mu with mu = 2
    r = ProcessRates(0, 0, 0, 0, 1, 0, 0, 0, 0)
    p = np.zeros(6)
    p[2] = 1.0
    dp = master_rhs(p, r)
    expected = np.zeros(6)
    expected[2] = -2.0
    expected[3] = 2.0
    np.testing.assert_allclose(dp, expected, atol=1e-14)


def test_rhs_conserves_mass_pointwise():
    rng = np.random.default_rng(9)
    for _ in range(25):
        v = rng.uniform(0, 2, 8)
        m = int(rng.integers(0, 4))
        r = ProcessRates(*v, m=m)
        # support kept away from the truncation boundary so every flux
        # telescopes inside the window
        p = np.zeros(40)
        p[:20] = rng.uniform(0, 1, 20)
        p /= p.sum()
        dp = master_rhs(p, r)
        # node creation injects delta_m and removes one unit of mass;
        # net drift of the total must vanish
        assert abs(dp.sum()) < 1e-10


def test_jacobian_matches_central_difference():
    # LSODA's Newton matrix is the banded T(mu); with the rank-one term
    # (B1 - B2 / mu^2) p k^T that mu = k . p adds, it must be the whole
    # Jacobian.  Every process is on, so that term carries omega_r, n_d,
    # l_p and n_p.
    rng = np.random.default_rng(4)
    r = ProcessRates(*rng.uniform(0.5, 2.0, 8), m=3)
    n, h = 41, 1e-5
    k = np.arange(n, dtype=float)
    gen = _Generator(r, n)
    for _ in range(3):
        p = rng.uniform(0, 1, n)
        p /= p.sum()
        ab = gen.jac(0.0, p)
        T = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
        mu = k @ p
        J = T + np.outer(gen._apply(gen._rows((0.0, 1.0, -1.0 / mu**2)), p), k)
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (master_rhs(p + e, r) - master_rhs(p - e, r)) / (2.0 * h)
        assert np.max(np.abs(J - fd)) <= 1e-9 * np.max(np.abs(J))
        # the banded rows hold no entry outside the matrix
        assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0


def test_oracle_rhs_evaluation_budget(monkeypatch):
    # the truncated generator is stiff (eigenvalues of order -k_max times the
    # per-link rate): an explicit method needs about 33,000 rhs evaluations
    # here, LSODA with the banded generator as Newton matrix about 1,500
    nfev = []
    real = degree_ode.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(degree_ode, "solve_ivp", counting)
    p0 = InitialCondition.polynomial((0.0, 0.0, 1.0)).coefficients(200)
    traj = integrate(p0, FIG2, 5.0, tol=1e-12)
    assert sum(nfev) <= 5000
    assert traj.stats["rhs_evals"] == sum(nfev)


def test_against_matrix_exponential():
    """Linear rate set: the flow must equal the exact affine solution."""
    # no terms that divide or multiply by the running mean
    r = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=1, l_p=0,
                     n_d=0, n_r=1, n_p=0, m=3)
    K = 60
    n = K + 1
    L = np.empty((n, n))
    base = master_rhs(np.zeros(n), r)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        L[:, j] = master_rhs(e, r) - base
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = L
    aug[:n, n] = base
    p0 = np.zeros(n)
    p0[2] = 1.0
    v = np.concatenate([p0, [1.0]])
    exact = (expm(0.4 * aug) @ v)[:n]

    traj = integrate(p0, r, 0.4, tol=1e-12)
    got = traj.at(0.4).p
    assert np.max(np.abs(got - exact)) < 1e-9


def test_mass_conserved_along_flow():
    h = InitialCondition.delta(3)
    traj = integrate(h.coefficients(150), FIG2, 1.0)
    for t in np.linspace(0, 1, 11):
        assert abs(traj.mass(float(t)) - 1.0) < 1e-8
    stats = traj.stats
    assert set(stats) == {"rhs_evals", "jac_evals", "steps", "mass_drift", "tail_weight"}
    assert stats["rhs_evals"] > stats["steps"] > 0 and stats["jac_evals"] >= 0
    assert 0.0 <= stats["mass_drift"] <= 1e-6  # the default mass_tol
    assert 0.0 <= stats["tail_weight"] <= 1e-12


def test_tail_weight_is_the_largest_last_probability():
    # a truncation far too short for t = 1: the weight reaching p_{K_max}
    # is what the mass drift warns about
    traj = integrate(InitialCondition.delta(3).coefficients(12), FIG2, 1.0, mass_tol=1.0)
    probe = np.linspace(0.0, 1.0, 101)
    assert traj.stats["tail_weight"] == max(traj.at(float(t)).p[-1] for t in probe)
    assert traj.stats["tail_weight"] > 1e-4


def test_first_moment_matches_closed_form():
    h = InitialCondition.delta(2)
    traj = integrate(h.coefficients(150), FIG2, 1.0)
    g = solve_closed_form(derive_riccati(FIG2), 2.0)
    for t in (0.1, 0.5, 1.0):
        assert traj.first_moment(t) == pytest.approx(g(t), abs=1e-8)


def test_every_read_checks_the_integrated_range():
    # mass and first_moment once extrapolated below t = 0 (first_moment(-0.5)
    # read 1.0e-8 against 2 at t = 0), clamped beyond t_end and passed NaN on
    traj = integrate(InitialCondition.polynomial((0.0, 0.0, 1.0)).coefficients(60), FIG2, 1.0)
    for read in (traj.at, traj.mass, traj.first_moment):
        for t in (-0.5, 3.0, float("nan")):
            with pytest.raises(ValidationError, match="outside the integrated range"):
                read(t)
    # inside the range the reads are the dense output's own values
    for t in (0.0, 0.5, 1.0):
        p = traj._sol(t)
        assert traj.mass(t) == float(np.sum(p))
        assert traj.first_moment(t) == float(np.arange(p.size) @ p)
    assert traj.first_moment(0.0) == pytest.approx(2.0, abs=1e-12)


def test_truncation_guard():
    # unbounded link creation: a short head cannot hold the mass
    r = ProcessRates(0, 0, 0, 5, 0, 0, 0, 0, 0)
    p0 = np.zeros(13)
    p0[2] = 1.0
    with pytest.raises(TruncationError):
        integrate(p0, r, 2.0)
    # a long head does
    p0 = np.zeros(201)
    p0[2] = 1.0
    traj = integrate(p0, r, 2.0)
    assert abs(traj.mass(2.0) - 1.0) < 1e-6


def test_input_validation():
    with pytest.raises(ValidationError):
        integrate(np.array([0.5, -0.1, 0.6]), FIG2, 0.5)
    with pytest.raises(ValidationError):
        integrate(np.array([0.3, 0.3]), FIG2, 0.5)  # mass != 1
    p0 = np.zeros(20)
    p0[4] = 1.0
    # a zero or NaN tolerance would never finish, a NaN mass_tol would
    # switch the truncation check off
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            integrate(p0, FIG2, 0.5, tol=bad)
        with pytest.raises(ValidationError):
            integrate(p0, FIG2, 0.5, mass_tol=bad)
    for bad in (np.nan, np.inf):
        q = p0.copy()
        q[7] = bad
        with pytest.raises(ValidationError):
            integrate(q, FIG2, 0.5)
    with pytest.raises(ValidationError):
        integrate(p0.reshape(4, 5), FIG2, 0.5)


def test_preferential_attachment_needs_positive_moment():
    p0 = np.zeros(20)
    p0[0] = 1.0
    with pytest.raises(DomainError):
        integrate(p0, ProcessRates(l_p=1.0), 0.5)


def test_a_trial_step_at_a_nonpositive_moment_is_an_integration_error():
    # p0's first moment is positive and the exact one grows (mu' = 2 l_p);
    # only an LSODA trial iterate reaches mu <= 0, once mass piles up at
    # k_max, which is the truncation's fault, not the input's
    with pytest.raises(IntegrationError, match="raise k_max"):
        integrate(np.array([1.0, 1e-280, 0.0]), ProcessRates(l_p=1.0), 1.0)


def test_gf_eval_and_moment():
    p = np.array([0.25, 0.5, 0.25])
    traj = integrate(
        np.pad(p, (0, 47)), ProcessRates(0, 0, 0, 0, 0, 0, 0, 0, 0), 0.1
    )
    dist = traj.at(0.0)
    assert gf_eval(dist, 1.0) == pytest.approx(1.0)
    assert gf_eval(dist, 0.5) == pytest.approx(0.25 + 0.25 + 0.0625)
    assert first_moment(dist) == pytest.approx(1.0)


def test_frozen_distribution_under_zero_rates():
    p0 = np.zeros(30)
    p0[4] = 1.0
    traj = integrate(p0, ProcessRates(0, 0, 0, 0, 0, 0, 0, 0, 0), 3.0)
    np.testing.assert_allclose(traj.at(3.0).p, p0, atol=1e-12)
