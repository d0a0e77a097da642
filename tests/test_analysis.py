"""Convergence diagnostics: norms, decay-law fits, bend detection."""

import numpy as np
import pytest

from degreeflow.analysis import (
    ConvergenceSeries,
    FitResult,
    decay_norms,
    detect_bend,
    diff_norms,
    fit_rate,
)
from degreeflow.characteristics import solve_grid
from degreeflow.errors import DomainError, ValidationError
from degreeflow.initial import InitialCondition
from degreeflow.model import ProcessRates
from degreeflow.steady import steady_from_rates

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)


def _series(times, values, argmax=None):
    arg = np.zeros_like(times) if argmax is None else argmax
    return ConvergenceSeries(times=times, sup_norm=values,
                             l2_norm=values.copy(), argmax_x=arg)


def test_fit_recovers_planted_exponential():
    t = np.linspace(1, 5, 21)
    fit = fit_rate(_series(t, 3.0 * np.exp(-2.0 * t)))
    assert fit.model == "exponential"
    assert fit.rate == pytest.approx(-2.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_planted_power_law():
    t = np.linspace(1, 5, 21)
    fit = fit_rate(_series(t, 2.0 / t))
    assert fit.model == "algebraic"
    assert fit.rate == pytest.approx(-1.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_window_restricts_points():
    t = np.linspace(0, 5, 51)
    vals = np.exp(-t)
    vals[:10] = 1.0  # corrupt early points outside the window
    fit = fit_rate(_series(t, vals), window=(1.0, 5.0))
    assert fit.rate == pytest.approx(-1.0, abs=1e-6)
    assert fit.n_points == 41


def test_fit_requires_enough_points():
    t = np.linspace(1, 5, 21)
    with pytest.raises(ValidationError):
        fit_rate(_series(t, np.exp(-t)), window=(4.9, 5.0))


def test_fit_requires_positive_norms():
    t = np.linspace(1, 5, 21)
    vals = np.exp(-t)
    vals[5] = 0.0
    with pytest.raises(DomainError):
        fit_rate(_series(t, vals))


def test_fit_l2_route():
    t = np.linspace(1, 5, 21)
    ser = _series(t, np.full(21, 2.0))
    ser.l2_norm[:] = 5.0 * np.exp(-0.5 * t)
    fit = fit_rate(ser, norm="l2")
    assert fit.rate == pytest.approx(-0.5, abs=1e-6)


def test_fit_refuses_an_unknown_norm():
    t = np.linspace(1, 5, 21)
    with pytest.raises(ValidationError, match="norm must be 'sup' or 'l2', got 'max'"):
        fit_rate(_series(t, np.exp(-t)), norm="max")


FIG6 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1, n_d=1, n_r=0, n_p=0, m=3)


@pytest.mark.parametrize(("rates", "t_max", "window", "model"), [
    (FIG2, 5.0, (1.0, 5.0), "exponential"),
    (FIG2, 5.0, (2.5, 5.0), "exponential"),
    (FIG6, 5.0, (1.0, 5.0), "algebraic"),
    (FIG6, 50.0, (25.0, 50.0), "algebraic"),
], ids=["fig2", "fig2-short", "fig6", "fig6-late"])
def test_fit_decides_by_the_joint_fit(rates, t_max, window, model):
    # the joint fit log y = a + b t + c log t decides: measured b = -8.078
    # and c = 0.113 for FIG2 on (1, 5), -8.080 and 0.117 on (2.5, 5),
    # -0.080 and -0.497 for FIG6 on (1, 5) and -0.001 and -0.945 on
    # (25, 50).  On FIG2's short window both R^2 are near 1 (0.9999999
    # against 0.9915), and a 0.01 margin between them called it algebraic
    # with rate -29.18
    series = decay_norms(np.linspace(-1, 1, 41), np.linspace(0, t_max, 51), rates,
                         InitialCondition.geometric(3.0), steady_from_rates(rates))
    fit = fit_rate(series, window)
    assert fit.model == model
    assert fit.r_squared == (fit.r2_exponential if model == "exponential" else fit.r2_algebraic)
    if rates is FIG2:
        assert fit.rate == pytest.approx(-8.04, abs=0.05)


def test_bend_detection():
    ts = np.array([0.0, 0.1, 0.2, 0.3])
    ones = np.ones(4)
    jumped = _series(ts, ones, np.array([-1.0, -1.0, -0.4, -0.3]))
    assert detect_bend(jumped) == pytest.approx(0.2)
    flat = _series(ts, ones, np.full(4, -1.0))
    assert detect_bend(flat) is None
    interior = _series(ts, ones, np.array([-0.2, -0.3, -0.25, -0.2]))
    assert detect_bend(interior) is None


@pytest.mark.parametrize("jump", [0.0, -1.0])
def test_bend_jump_must_be_positive(jump):
    # at jump <= 0 a maximizer that stays on the boundary counted as a bend
    # at the second output time
    flat = _series(np.array([0.0, 0.1, 0.2]), np.ones(3), np.full(3, -1.0))
    with pytest.raises(ValidationError, match="jump must be a finite real number > 0"):
        detect_bend(flat, jump=jump)


def test_diff_norms_of_matching_profiles_vanish():
    steady = steady_from_rates(FIG2)
    xs = np.linspace(-1, 1, 31)

    class _Stub:
        x = xs
        t = np.array([0.0, 1.0])
        G = np.vstack([steady(xs), steady(xs)])

    ser = diff_norms(_Stub(), steady)
    assert np.max(ser.sup_norm) == 0.0
    assert np.max(ser.l2_norm) == 0.0


def test_norm_inequality():
    # on [-1, 1] the L2 norm is at most sqrt(2) times the sup norm
    steady = steady_from_rates(FIG2)
    h = InitialCondition.polynomial([0, 0, 1])
    field = solve_grid(np.linspace(-1, 1, 41), np.linspace(0, 1, 5), FIG2, h)
    ser = diff_norms(field, steady)
    assert np.all(ser.l2_norm <= np.sqrt(2.0) * ser.sup_norm + 1e-12)
    assert ser.times.shape == ser.sup_norm.shape == ser.argmax_x.shape


def test_initial_row_measures_initial_gap():
    steady = steady_from_rates(FIG2)
    h = InitialCondition.polynomial([0, 0, 1])
    xs = np.linspace(-1, 1, 41)
    field = solve_grid(xs, np.array([0.0, 0.5]), FIG2, h)
    ser = diff_norms(field, steady)
    direct = np.max(np.abs(xs**2 - steady(xs)))
    assert ser.sup_norm[0] == pytest.approx(direct, rel=1e-10)


def test_decay_norms_agrees_with_subtraction_early():
    # the transported difference must coincide with plain subtraction while
    # the latter is still far from its roundoff floor
    steady = steady_from_rates(FIG2)
    h = InitialCondition.polynomial([0, 0, 1])
    xs = np.linspace(-1, 1, 21)
    ts = np.array([0.0, 0.25, 0.5])
    ser_d = decay_norms(xs, ts, FIG2, h, steady)
    field = solve_grid(xs, ts, FIG2, h)
    ser_s = diff_norms(field, steady)
    np.testing.assert_allclose(ser_d.sup_norm, ser_s.sup_norm, rtol=1e-4, atol=1e-9)
    np.testing.assert_allclose(ser_d.argmax_x, ser_s.argmax_x, atol=1e-12)


def test_decay_norms_on_two_singularity_profile():
    # alpha = 7: the difference transport splines G* up to x = 1 and across
    # the interior singular point xi = 7/8
    rates = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=1, l_p=0,
                         n_d=0, n_r=0, n_p=2, m=3)
    steady = steady_from_rates(rates)
    h = InitialCondition.geometric(3.0)
    ser = decay_norms(np.linspace(-1, 1, 11), np.linspace(0, 2, 21), rates, h, steady)
    assert np.all(np.isfinite(ser.sup_norm)) and np.all(ser.sup_norm > 0.0)
    assert np.all(np.isfinite(ser.l2_norm)) and np.all(ser.l2_norm > 0.0)
    assert isinstance(fit_rate(ser, window=(1.0, 2.0)), FitResult)
