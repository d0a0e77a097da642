"""Initial generating functions and their coefficient views."""

import math

import numpy as np
import pytest

from degreeflow.errors import ValidationError
from degreeflow.initial import InitialCondition


def test_polynomial_square():
    h = InitialCondition.polynomial([0, 0, 1])
    assert h(0.5) == 0.25
    assert h(1.0) == 1.0
    assert h.derivative(0.5) == pytest.approx(1.0)
    assert h.mean_degree == pytest.approx(2.0)
    np.testing.assert_allclose(h.coefficients(4), [0, 0, 1, 0, 0])


def test_polynomial_must_normalize():
    with pytest.raises(ValidationError):
        InitialCondition.polynomial([0.5, 0.2])
    with pytest.raises(ValidationError):
        InitialCondition.polynomial([0.5, -0.1, 0.6])


def test_delta():
    h = InitialCondition.delta(3)
    assert h(0.5) == 0.125
    assert h.mean_degree == pytest.approx(3.0)
    co = h.coefficients(5)
    assert co[3] == 1.0 and co.sum() == 1.0


def test_explicit_head():
    h = InitialCondition.explicit([0.25, 0.5, 0.25])
    assert h(1.0) == pytest.approx(1.0)
    assert h.mean_degree == pytest.approx(1.0)
    # h(x) = 0.25 + 0.5 x + 0.25 x^2
    assert h(0.5) == pytest.approx(0.5625)


def test_geometric():
    # tail p_k proportional to rho**-k gives h(x) = (rho - 1) / (rho - x)
    h = InitialCondition.geometric(3.0)
    assert h(0.0) == pytest.approx(2.0 / 3.0)
    assert h(0.5) == pytest.approx(0.8)
    assert h(1.0) == pytest.approx(1.0)
    assert h.mean_degree == pytest.approx(0.5)
    assert h.tail[1] == pytest.approx(3.0)
    assert repr(h) == "InitialCondition.geometric(rho=3.0)"
    np.testing.assert_allclose(
        h.coefficients(3), [2 / 3, 2 / 9, 2 / 27, 2 / 81], rtol=1e-13
    )


@pytest.mark.parametrize("k_max", [2.5, -1, "3", True])
def test_coefficients_take_a_count(k_max):
    # 2.5 raised a raw TypeError from np.zeros
    with pytest.raises(ValidationError, match="k_max must be an integer >= 0"):
        InitialCondition.polynomial([0, 0, 1]).coefficients(k_max)


@pytest.mark.parametrize("tail", [(0.5,), 0.5, (0.5, 2.0, 3.0)])
def test_explicit_tail_must_be_a_pair(tail):
    # (0.5,) raised a raw ValueError on unpacking, 0.5 a raw TypeError
    with pytest.raises(ValidationError, match="tail must be a pair"):
        InitialCondition.explicit([0.5], tail)


@pytest.mark.parametrize("coeffs", [[0.0, math.nan, 1.0], [0.0, math.inf]])
def test_coefficients_must_be_finite(coeffs):
    with pytest.raises(ValidationError, match="coefficients must be finite"):
        InitialCondition.polynomial(coeffs)


def test_a_tail_amplitude_above_one_is_refused():
    with pytest.raises(ValidationError, match=r"a must lie in \(0, 1\], got 1.5"):
        InitialCondition.explicit([], (1.5, 3.0))


def test_geometric_requires_radius_above_one():
    with pytest.raises(ValidationError):
        InitialCondition.geometric(1.0)
    with pytest.raises(ValidationError):
        InitialCondition.geometric(0.5)


def test_derivative_finite_difference():
    rng = np.random.default_rng(5)
    h = InitialCondition.geometric(2.5)
    for _ in range(20):
        x = rng.uniform(-1, 1)
        fd = (h(x + 1e-6) - h(x - 1e-6)) / 2e-6
        assert h.derivative(x) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_mean_degree_matches_slope_at_one():
    for h in (
        InitialCondition.polynomial([0.1, 0.2, 0.3, 0.4]),
        InitialCondition.geometric(4.0),
        InitialCondition.delta(2),
    ):
        fd = (h(1.0) - h(1.0 - 1e-7)) / 1e-7
        assert h.mean_degree == pytest.approx(fd, rel=1e-5)


# the domain's edges and seeded points, as the solver's parity pairs take them
PARITY_X = [-1.0, 1.0, 1.0 - 1e-12, 0.3, 0.0, -0.0, 1e-300]
PARITY_X += np.random.default_rng(21).uniform(-1.0, 1.0, 10).tolist()


@pytest.mark.parametrize("h", [
    InitialCondition.polynomial([0.1, 0.2, 0.3, 0.4]),
    InitialCondition.geometric(3.0),
    InitialCondition.explicit([0.1, 0.2, 0.1], (0.675, 1.5)),  # tail from degree 3: 0.675 / 1.5^2 / 0.5 = 0.6
    InitialCondition.explicit([0.05], (0.95, 2.0)),  # tail from degree 1: a / (rho - 1) = 0.95
    InitialCondition.delta(3),
], ids=["polynomial", "geometric", "explicit-tail-3", "explicit-tail-1", "delta"])
def test_a_number_gives_the_bits_of_a_one_element_array(h):
    # a number is evaluated on Python floats, Horner in polyval's order and
    # the tail on floats with numpy's power; it must give the bits of the
    # same point in a 1-element array, which takes numpy's path
    for x in PARITY_X:
        for f in (h, h.derivative):
            scalar, array = f(x), f(np.array([x]))
            assert type(scalar) is float
            assert np.array([scalar]).tobytes() == array.tobytes(), (f, x)
