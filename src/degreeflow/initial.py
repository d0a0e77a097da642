"""Initial degree distributions given through their generating functions.

Supported shapes: finitely supported distributions (polynomial h),
geometric distributions p_k = a rho^-k (radius of convergence rho > 1, and
a = (rho - 1)/rho), and
an explicit head vector with an optional geometric tail.  All evaluators are
closed-form so they stay exact on the whole interval the solver needs.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ValidationError
from .model import count, real, real_or_array

__all__ = ["InitialCondition"]

_NORM_TOL = 1e-12


class InitialCondition:
    """Probability generating function h(x) of the t = 0 degree distribution.

    Construct through :meth:`polynomial`, :meth:`geometric`,
    :meth:`explicit`, or :meth:`delta`.  Instances are callable (h itself)
    and expose the derivative, the mean degree and the coefficient
    sequence.
    """

    def __init__(self, kind: str, head, tail: tuple[float, float] | None):
        self.kind = kind
        self.head = np.asarray(real_or_array(head, "coefficients"))
        self.tail = tail
        self._scale = 1.0
        if self.head.ndim != 1:
            raise ValidationError("coefficient vector must be a 1-d sequence")
        if self.head.size == 0 and tail is None:
            raise ValidationError("initial condition needs coefficients or a tail")
        if np.any(~np.isfinite(self.head)):
            raise ValidationError("coefficients must be finite")
        if np.any(self.head < -_NORM_TOL) or np.any(self.head > 1.0 + _NORM_TOL):
            raise ValidationError("coefficients must lie in [0, 1]")
        self.head = np.clip(self.head, 0.0, 1.0)
        self._slope = P.polyder(self.head)  # the coefficients of the head's derivative
        if tail is not None:
            try:
                a, rho = tail
            except (TypeError, ValueError):
                raise ValidationError(f"tail must be a pair (a, rho), got {tail!r}") from None
            a, rho = self.tail = real("a", a, 0.0, strict=True), real("rho", rho, 1.0, strict=True)
            if a > 1.0:
                raise ValidationError(f"a must lie in (0, 1], got {a!r}")
        total = float(self(1.0))
        if abs(total - 1.0) > _NORM_TOL:
            raise ValidationError(f"generating function must satisfy h(1) = 1, got {total!r}")
        # Absorb rounding slack so h(1) = 1 to machine precision.
        self._scale = 1.0 / total

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "InitialCondition":
        """Finitely supported distribution: h(x) = sum_k coeffs[k] x^k."""
        return cls("polynomial", coeffs, None)

    @classmethod
    def geometric(cls, rho: float) -> "InitialCondition":
        """Geometric distribution p_k = a rho^-k, whose h(1) = 1 fixes a = (rho-1)/rho."""
        rho = real("rho", rho, 1.0, strict=True)
        return cls("geometric", np.array([]), ((rho - 1.0) / rho, rho))

    @classmethod
    def explicit(cls, head, tail: tuple[float, float] | None = None) -> "InitialCondition":
        """Explicit coefficient head, optionally continued by a geometric tail."""
        return cls("explicit", head, tail)

    @classmethod
    def delta(cls, m: int) -> "InitialCondition":
        """Point mass at degree m: h(x) = x^m."""
        m = count("degree", m, 0)
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        return cls.polynomial(coeffs)

    # -- evaluation --------------------------------------------------------

    # x is one number or an array, as ``real_or_array`` reads it.  A number
    # takes the float path: Horner's rule in polyval's order and the tail on
    # Python floats, which give the array path's bits in a fraction of
    # numpy's set-up time for one element.  Powers are numpy's on both paths,
    # since libm's pow and numpy's SIMD power differ in the last bit.

    def __call__(self, x):
        x = real_or_array(x, "x")
        out = _polyval(x, self.head) if self.head.size else _zero(x)
        if self.tail is not None:
            a, rho = self.tail
            k0 = self.head.size
            out = out + a * rho ** (1 - k0) * _power(x, k0) / (rho - x)
        return out * self._scale

    def derivative(self, x):
        """h'(x); h'(1) is the initial mean degree."""
        x = real_or_array(x, "x")
        out = _polyval(x, self._slope) if self.head.size > 1 else _zero(x)
        if self.tail is not None:
            a, rho = self.tail
            k0 = self.head.size
            if k0 == 0:
                out = out + a * rho / _power(rho - x, 2)
            else:
                out = out + a * rho ** (1 - k0) * _power(x, k0 - 1) * (k0 * (rho - x) + x) / _power(rho - x, 2)
        return out * self._scale

    @property
    def mean_degree(self) -> float:
        return float(self.derivative(1.0))

    def coefficients(self, k_max: int) -> np.ndarray:
        """Degree probabilities p_0 .. p_{k_max} (geometric tails extended exactly); k_max is a ``model.count``."""
        k_max = count("k_max", k_max, 0)
        out = np.zeros(k_max + 1)
        n = min(self.head.size, k_max + 1)
        out[:n] = self.head[:n]
        if self.tail is not None and self.head.size <= k_max:
            a, rho = self.tail
            k = np.arange(self.head.size, k_max + 1, dtype=float)
            out[self.head.size :] = a * rho**-k
        return out * self._scale

    def __repr__(self):
        if self.kind == "geometric" and self.tail is not None:
            return f"InitialCondition.geometric(rho={self.tail[1]!r})"
        return f"InitialCondition({self.kind!r}, head={self.head!r}, tail={self.tail!r})"


def _polyval(x, c):
    """numpy's polyval of the coefficients c at x; on floats when x is a float, in polyval's order."""
    if not isinstance(x, float):
        return P.polyval(x, c)
    c = c.tolist()
    out = c[-1] + x * 0
    for ck in reversed(c[:-1]):
        out = ck + out * x
    return out


def _zero(x):
    """0 in the shape of x."""
    return 0.0 if isinstance(x, float) else np.zeros_like(x)


def _power(x, k: int):
    """x ** k by numpy's power, a float for a float."""
    return float(np.power(x, k)) if isinstance(x, float) else x**k
