"""First-moment dynamics in closed form.

The mean degree g(t) of the evolving network satisfies the scalar Riccati
equation g' = -n_d g^2 - b g + c, which is solvable in closed form for every
admissible coefficient combination.  The closed-form trajectory is what the
characteristics solver consumes: it is exact, cheap, and provides the exact
derivative g'(t) needed by the characteristic system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoSteadyStateError, ValidationError
from .model import RiccatiCoefficients, real, real_or_array

__all__ = [
    "ClosedFormMoment",
    "equilibrium",
]


def equilibrium(coeffs: RiccatiCoefficients) -> float:
    """Long-time limit of g(t), the same for every positive g(0).

    Returns the attracting root of the Riccati right-hand side:
    ``(-b + sqrt(b^2 + 4 n_d c)) / (2 n_d)`` when n_d > 0, ``c / b`` when
    n_d = 0 < b, 0 when c = 0 < n_d + b, and ``math.inf`` when
    n_d = b = 0 < c.  When n_d = b = c = 0 the rates conserve g, whose
    limit is then g(0) itself: no limit follows from the coefficients
    alone, and NoSteadyStateError is raised.  A coefficient that is not a
    finite real number >= 0 raises ValidationError (``model.real``), and
    finite coefficients whose discriminant b^2 + 4 n_d c overflows raise
    DomainError: the root would read 0, a dying network.
    """
    n_d, b, c = (real(name, getattr(coeffs, name), 0.0) for name in ("n_d", "b", "c"))
    if n_d > 0.0 and c > 0.0:
        disc = b * b + 4.0 * n_d * c
        if disc == math.inf:
            raise DomainError(f"b^2 + 4 n_d c = {disc!r}: the closed-form moment overflowed for these rates")
        # 2c/(b + sqrt(disc)) is the cancellation-free form of the + root.
        return 2.0 * c / (b + math.sqrt(disc))
    if b > 0.0:
        return c / b
    if n_d > 0.0:
        return 0.0
    if c > 0.0:
        return math.inf
    raise NoSteadyStateError("the rates conserve the first moment, which keeps its initial value, so they fix "
                             "no stationary distribution; give its constants with [steady] constants")


def _with_exp(t):
    """(t, exp): one number t (``model.real_or_array``) as a float with math.exp, else a float array with np.exp.

    A time below 0 raises ValidationError: g is a trajectory forward from
    g(0), and far back the closed forms overflow.  The check is one
    comparison on a float and one reduction on an array.
    """
    t = real_or_array(t, "t")
    if isinstance(t, float):
        if t < 0.0:
            raise ValidationError(f"t must be >= 0, got {t!r}")
        return t, math.exp
    if np.count_nonzero(t < 0.0):
        raise ValidationError(f"t must be >= 0, got {float(t[t < 0.0].min())!r} among the times")
    return t, np.exp


@dataclass
class ClosedFormMoment:
    """g(t) in closed form from g(0) = g0, with its exact derivative and equilibrium.

    Three forms cover every coefficient set.  Logistic, for n_d > 0 and
    sigma = sqrt(b^2 + 4 n_d c) > 0: g = (r+ - r- K e^(-sigma t)) /
    (1 - K e^(-sigma t)) between the roots r+ > 0 > r-, with K = (g0 - r+)
    / (g0 - r-).  Bernoulli, for n_d = 0 or b = c = 0: the gap y = g -
    g_inf obeys y' = -b y - n_d y^2, and as one of the two terms vanishes
    y = y0 e^(-b t) or y = y0 / (1 + n_d y0 t); each is evaluated without
    the vanishing term, so at t = inf the gap is 0 and g is g_inf.  Growth,
    for n_d = b = 0 < c: g = g0 + c t, with no finite equilibrium.  When
    n_d = b = c = 0 the rates conserve g, so ``equilibrium`` is g0 and the
    gap is 0 at every t.

    Construction checks its inputs, so every trajectory is valid: a g0
    that is not one finite positive number raises DomainError, and one
    that numpy cannot read as numbers, or a coefficient that is not a
    finite real number >= 0, raises ValidationError.
    """

    coeffs: RiccatiCoefficients
    g0: float
    equilibrium: float = field(init=False)
    _r_minus: float = field(init=False, default=0.0)
    _sigma: float = field(init=False, default=0.0)  # > 0 exactly in the logistic form
    _K: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.g0 = real_or_array(self.g0, "g0")
        if not (isinstance(self.g0, float) and 0.0 < self.g0 < math.inf):
            raise DomainError(f"initial first moment must be one finite positive number, got {self.g0!r}")
        try:
            self.equilibrium = equilibrium(self.coeffs)  # checks the coefficients too
        except NoSteadyStateError:  # the rates conserve g
            self.equilibrium = self.g0
        n_d, b, c = self.coeffs.n_d, self.coeffs.b, self.coeffs.c
        sigma = math.sqrt(b * b + 4.0 * n_d * c)
        if n_d > 0.0 and sigma > 0.0:
            self._sigma = sigma
            self._r_minus = -(b + sigma) / (2.0 * n_d)
            self._K = (self.g0 - self.equilibrium) / (self.g0 - self._r_minus)

    def __call__(self, t):
        """g(t): a float for one number t >= 0 (``model.real_or_array``), else an array.

        One number is evaluated on Python floats with ``math.exp``: the
        dense flow behind the backward trace calls g once per
        right-hand-side evaluation, and numpy costs about a microsecond per
        call on a 0-d array.  The last bit may differ from the array path,
        which the march takes on its node times.
        """
        t, exp = _with_exp(t)
        if self._sigma:
            decay = self._K * exp(-self._sigma * t)
            return (self.equilibrium - self._r_minus * decay) / (1.0 - decay)
        if self.equilibrium == math.inf:
            return self.g0 + self.coeffs.c * t
        return self.equilibrium + self.gap(t)

    def derivative(self, t):
        """g'(t) = -n_d g^2 - b g + c at g = g(t), the Riccati right-hand side; a float or an array as for g(t)."""
        g = self(t)
        return -self.coeffs.n_d * g * g - self.coeffs.b * g + self.coeffs.c

    def gap(self, t):
        """g(t) - g_inf without subtractive cancellation.

        Each form has an explicit expression for the gap, so the result
        keeps full relative accuracy even when it is exponentially small.
        Growth has no finite equilibrium and raises DomainError; a t below
        0 raises ValidationError, as for g(t).
        """
        t, exp = _with_exp(t)
        if self._sigma:
            decay = self._K * exp(-self._sigma * t)
            return (self.equilibrium - self._r_minus) * decay / (1.0 - decay)
        if self.equilibrium == math.inf:
            raise DomainError("first moment has no finite equilibrium")
        if self.coeffs.n_d:  # b = c = 0: y' = -n_d y^2
            y0 = self.g0 - self.equilibrium
            return y0 / (1.0 + self.coeffs.n_d * y0 * t)
        if self.coeffs.b:  # n_d = 0: y' = -b y
            return (self.g0 - self.equilibrium) * exp(-self.coeffs.b * t)
        return 0.0 if isinstance(t, float) else np.zeros_like(t)  # the rates conserve g; 0.0 * t is NaN at t = inf
