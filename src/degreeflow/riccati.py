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

from .errors import DomainError, ValidationError
from .model import RiccatiCoefficients

__all__ = [
    "ClosedFormMoment",
    "equilibrium",
]


def _check_coeffs(coeffs: RiccatiCoefficients) -> None:
    for name in ("n_d", "b", "c"):
        value = getattr(coeffs, name)
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(f"Riccati coefficient {name} must be finite and >= 0, got {value!r}")


def _check_g0(g0: float) -> float:
    g0 = float(g0)
    if not math.isfinite(g0) or g0 <= 0.0:
        raise DomainError(f"initial first moment must be strictly positive, got {g0!r}")
    return g0


def equilibrium(coeffs: RiccatiCoefficients) -> float:
    """Long-time limit of g(t) for positive initial data.

    Returns the attracting root of the Riccati right-hand side:
    ``(-b + sqrt(b^2 + 4 n_d c)) / (2 n_d)`` when n_d > 0, ``c / b`` when
    n_d = 0 < b, ``math.inf`` when n_d = b = 0 < c, and 0 when c = 0 (the
    all-zero case is constant in time; 0 is reported by convention).
    """
    _check_coeffs(coeffs)
    if coeffs.c == 0.0:
        return 0.0
    if coeffs.n_d > 0.0:
        # 2c/(b + sqrt(disc)) is the cancellation-free form of the + root.
        return 2.0 * coeffs.c / (coeffs.b + math.sqrt(coeffs.b**2 + 4.0 * coeffs.n_d * coeffs.c))
    if coeffs.b > 0.0:
        return coeffs.c / coeffs.b
    return math.inf


def _with_exp(t):
    """(t, exp): a float t as a Python float with math.exp, anything else as a float array with np.exp."""
    if isinstance(t, float):
        return float(t), math.exp
    return np.asarray(t, dtype=float), np.exp


def _scalar_or_array(out):
    """A float for a Python float or a 0-d array, else the array itself."""
    return out if type(out) is float or out.ndim else float(out)


@dataclass
class ClosedFormMoment:
    """g(t) in closed form from g(0) = g0, with its exact derivative and equilibrium.

    Construction checks its inputs, so every trajectory is valid: a g0
    that is not finite and positive raises DomainError, and a negative or
    non-finite coefficient raises ValidationError.
    """

    coeffs: RiccatiCoefficients
    g0: float
    _branch: str = field(init=False)
    _r_plus: float = field(init=False, default=0.0)
    _r_minus: float = field(init=False, default=0.0)
    _sigma: float = field(init=False, default=0.0)
    _K: float = field(init=False, default=0.0)

    def __post_init__(self):
        _check_coeffs(self.coeffs)
        self.g0 = _check_g0(self.g0)
        n_d, b, c = self.coeffs.n_d, self.coeffs.b, self.coeffs.c
        if n_d > 0.0:
            disc = b * b + 4.0 * n_d * c
            if disc == 0.0:
                # b = c = 0: pure pairwise annihilation, algebraic decay.
                self._branch = "double_root"
                return
            sq = math.sqrt(disc)
            self._r_plus = 2.0 * c / (b + sq)
            self._r_minus = -(b + sq) / (2.0 * n_d)
            self._sigma = sq
            if abs(self.g0 - self._r_plus) <= 1e-12 * max(1.0, abs(self._r_plus)):
                self._branch = "constant"
            else:
                self._branch = "logistic"
                self._K = (self.g0 - self._r_plus) / (self.g0 - self._r_minus)
        elif b > 0.0:
            self._branch = "linear_decay"
        else:
            self._branch = "affine"

    def __call__(self, t):
        """g(t): a float for a float t, else an array (a float when t is 0-d).

        A float t, np.float64 included, is evaluated on Python floats with
        ``math.exp``: the dense flow behind the backward trace calls g once
        per right-hand-side evaluation, and numpy costs about a microsecond
        per call on a 0-d array.  The last bit may differ from the array
        path, which the march takes on its node times.
        """
        t, exp = _with_exp(t)
        n_d, b, c = self.coeffs.n_d, self.coeffs.b, self.coeffs.c
        if self._branch == "constant":
            out = np.full_like(t, self.g0, dtype=float)
        elif self._branch == "double_root":
            out = self.g0 / (1.0 + n_d * self.g0 * t)
        elif self._branch == "logistic":
            decay = self._K * exp(-self._sigma * t)
            out = (self._r_plus - self._r_minus * decay) / (1.0 - decay)
        elif self._branch == "linear_decay":
            out = c / b + (self.g0 - c / b) * exp(-b * t)
        else:  # affine: n_d = b = 0
            out = self.g0 + c * t
        return _scalar_or_array(out)

    def derivative(self, t):
        """g'(t) = -n_d g^2 - b g + c at g = g(t), the Riccati right-hand side; a float or an array as for g(t)."""
        g = self(t)
        return -self.coeffs.n_d * g * g - self.coeffs.b * g + self.coeffs.c

    @property
    def equilibrium(self) -> float:
        return equilibrium(self.coeffs)

    def gap(self, t):
        """g(t) - g_inf without subtractive cancellation.

        Each branch has an explicit expression for the gap, so the result
        keeps full relative accuracy even when it is exponentially small.
        """
        t, exp = _with_exp(t)
        n_d, b, c = self.coeffs.n_d, self.coeffs.b, self.coeffs.c
        if self._branch == "constant":
            out = np.full_like(t, self.g0 - self._r_plus, dtype=float)
        elif self._branch == "double_root":
            out = self.g0 / (1.0 + n_d * self.g0 * t)
        elif self._branch == "logistic":
            decay = self._K * exp(-self._sigma * t)
            out = (self._r_plus - self._r_minus) * decay / (1.0 - decay)
        elif self._branch == "linear_decay":
            out = (self.g0 - c / b) * exp(-b * t)
        else:  # affine: diverges
            raise DomainError("first moment has no finite equilibrium")
        return _scalar_or_array(out)
