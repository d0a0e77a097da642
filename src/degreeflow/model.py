"""Model definitions for randomly evolving networks.

A network evolves under eight elementary processes, each with a nonnegative
rate: link rewiring (uniform ``omega_r`` or degree-preferential ``omega_p``),
link deletion ``l_d``, link addition (uniform ``l_r`` or preferential
``l_p``), node deletion ``n_d`` (degree-biased), and node addition with
``m`` initial links wired to uniform (``n_r``) or preferential (``n_p``)
targets.  The degree distribution's probability generating function
G(x, t) then satisfies a nonlocal first-order PDE whose nonlocality enters
only through the first moment g(t) = G_x(1, t).

This module holds the rate container, the reduction of the PDE's moment
equation to Riccati form, the characteristic coefficients A, B, C and c4,
and the constants of the stationary equation.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError

__all__ = [
    "ProcessRates",
    "Coefficients",
    "RiccatiCoefficients",
    "Degeneracy",
    "SteadyConstants",
    "coefficients",
    "derive_riccati",
    "steady_constants",
]

_RATE_FIELDS = ("omega_r", "omega_p", "l_d", "l_r", "l_p", "n_d", "n_r", "n_p")


def _brief(v) -> str:
    """repr(v) cut to 40 characters, for a message."""
    r = repr(v)
    return r if len(r) <= 40 else r[:37] + "..."


def real(name: str, v, low: float = -math.inf, strict: bool = False) -> float:
    """The caller's number v as a float: finite, real and >= low (> low when strict).

    This is the one check of a number a caller passes in.  Anything else,
    an int past the float range included, raises ValidationError, whose
    message names the argument.  A bool is a real number.
    """
    try:
        x = float(v) if isinstance(v, numbers.Real) else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ValidationError(f"{name} must be a finite real number{bound}, got {_brief(v)}")
    return x


def count(name: str, v, low: int) -> int:
    """The caller's integer v, >= low; anything else raises ValidationError naming it.

    An integer is what ``operator.index`` takes, except a bool.  Every
    count takes part in float arithmetic, so an int past the float range
    is refused, as by ``real``.
    """
    try:
        n = operator.index(v)
        float(n)  # an int past the float range overflows
    except (TypeError, OverflowError):
        n = None
    if n is None or isinstance(v, bool) or n < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {_brief(v)}")
    return n


@dataclass(frozen=True)
class ProcessRates:
    """Per-process rates of the network model.

    Parameters
    ----------
    omega_r, omega_p : float
        Uniform and preferential link rewiring rates.
    l_d, l_r, l_p : float
        Link deletion, uniform link addition, preferential link addition.
    n_d, n_r, n_p : float
        Node deletion and node addition (uniform / preferential targets).
    m : int
        Number of links attached to each newly added node.

    Each rate must be a finite real number >= 0 (``real``) and m an
    integer >= 0 (``count``); anything else raises ValidationError.
    """

    omega_r: float = 0.0
    omega_p: float = 0.0
    l_d: float = 0.0
    l_r: float = 0.0
    l_p: float = 0.0
    n_d: float = 0.0
    n_r: float = 0.0
    n_p: float = 0.0
    m: int = 0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            real(name, getattr(self, name), 0.0)
        count("m", self.m, 0)


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Coefficients of the first-moment equation g' = -n_d g^2 - b g + c."""

    n_d: float
    b: float
    c: float


class Degeneracy(enum.Enum):
    """How the long-time first moment behaves."""

    REGULAR = "regular"  # finite positive limit
    UNIFORM = "uniform"  # g -> 0: degrees die out, G* = 1
    DIVERGENT = "divergent"  # g -> infinity: no stationary distribution


@dataclass(frozen=True)
class SteadyConstants:
    """Constants of the stationary generating-function ODE.

    The stationary equation reads
    ``0 = (x-1)(c1 x - c2) G*'(x) + ((x-1) c3 - c4) G*(x) + c4 x^m``
    with all four constants nonnegative.  They are only defined when the
    first moment has a finite positive limit (``degeneracy == REGULAR``);
    otherwise ``c1..c4`` are None and ``g_inf`` is 0 or ``math.inf``.
    """

    g_inf: float
    degeneracy: Degeneracy
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None
    m: int = 0


def derive_riccati(rates: ProcessRates) -> RiccatiCoefficients:
    """Map process rates to the closed first-moment equation; anything but ProcessRates raises ValidationError.

    The mean degree g(t) of the evolving network obeys the scalar Riccati
    equation g' = -n_d g^2 - b g + c with

    ``b = l_d + n_p + n_r``,
    ``c = 2 (l_p + l_r + m (n_p + n_r))``.
    """
    if not isinstance(rates, ProcessRates):
        raise ValidationError(f"rates must be ProcessRates, got {type(rates).__name__}")
    b = rates.l_d + rates.n_p + rates.n_r
    c = 2.0 * (rates.l_p + rates.l_r + rates.m * (rates.n_p + rates.n_r))
    return RiccatiCoefficients(n_d=rates.n_d, b=b, c=c)


def real_or_array(v, name: str):
    """v as a Python float when numpy reads it as one number, else as a float array.

    Every float path in the package is chosen by this one rule: the scalar
    queries of ``CharacteristicSolver``, ``degree_ode.gf_eval``,
    ``coefficients``, ``riccati.ClosedFormMoment`` and
    ``InitialCondition``.  Whatever
    ``np.asarray(v, dtype=float)`` makes 0-d is one number (a Fraction, a
    0-d array, None as nan), and a float or an int skips np.asarray, which
    costs about a microsecond.  It only converts: NaN and inf pass, and
    anything numpy cannot read as floats, an int past the float range
    included, raises ValidationError naming the argument.  So does text,
    str or bytes alone or in an array, although numpy would parse "0.5".
    """
    try:
        if isinstance(v, (float, int)):
            return float(v)
        a = np.asarray(v)
        if a.dtype.kind in "SU" or a.dtype.kind == "O" and any(isinstance(e, (str, bytes)) for e in a.flat):
            raise TypeError("text is not a number")
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a real number or an array of them, got {_brief(v)}") from None
    return float(a) if a.ndim == 0 else a


class Coefficients(NamedTuple):
    """PDE coefficients at one first moment g; A_g, B_g, C_g are d/dg."""

    A: float
    B: float
    C: float
    c4: float
    A_g: float
    B_g: float
    C_g: float


def coefficients(rates: ProcessRates, g) -> Coefficients:
    """Coefficients of G_t = (x-1)(A x - B) G_x + ((x-1) C - c4) G + c4 x^m at g > 0.

    g is one moment or an array of moments, read by ``real_or_array``; a
    coefficient that depends on g then has its shape, and the others stay
    floats.  g enters A only as wsum / g, wsum = 2 l_p + m n_p.  Without
    that term A stays finite down to g = 0, where the moment of a dying
    network underflows; with it, a g whose square underflows raises
    DomainError, and so does a NaN g, whose message says that the
    closed-form moment overflowed.
    """
    g = real_or_array(g, "g")
    wsum = 2.0 * rates.l_p + rates.m * rates.n_p
    if wsum == 0.0:
        A, A_g = rates.omega_p, 0.0
    # np.all takes 3.5 us on a float, and 3 us on the march's 14 node moments, where count_nonzero takes 1.3
    elif g * g > 0.0 if isinstance(g, float) else np.count_nonzero(g * g > 0.0) == g.size:
        A, A_g = rates.omega_p + wsum / g, -wsum / g**2
    else:
        g_min = float(np.min(g))  # nan when any moment is nan
        if math.isnan(g_min):  # inf passes the test above
            raise DomainError(f"first moment g = {g_min!r}: the closed-form moment overflowed for these rates")
        raise DomainError(f"first moment g = {g_min!r} is too small for the wsum / g term of A")
    # positional: keywords double the cost, and the dense flow calls this
    # once per right-hand-side evaluation
    return Coefficients(
        A,
        rates.omega_r + rates.omega_p + rates.l_d + rates.n_d * g,  # B
        rates.omega_r * g + 2.0 * rates.l_r + rates.m * rates.n_r,  # C
        rates.n_r + rates.n_p,  # c4
        A_g,
        rates.n_d,  # B_g
        rates.omega_r,  # C_g
    )


def steady_constants(rates: ProcessRates) -> SteadyConstants:
    """Constants of the stationary ODE for the given rates.

    Uses the equilibrium first moment g_inf of the Riccati equation.  When
    g_inf = 0 every degree eventually vanishes (G* = 1, ``UNIFORM``); when
    g_inf diverges there is no stationary distribution (``DIVERGENT``).
    Rates that conserve g (n_d = b = c = 0) fix no g_inf and raise
    NoSteadyStateError.  Constants that miss their consistency identity
    beyond rounding raise AccuracyError.
    """
    from .riccati import equilibrium  # local import: riccati depends on model

    coeffs = derive_riccati(rates)
    g_inf = equilibrium(coeffs)
    if math.isinf(g_inf):
        return SteadyConstants(g_inf=math.inf, degeneracy=Degeneracy.DIVERGENT, m=rates.m)
    if g_inf == 0.0:
        return SteadyConstants(g_inf=0.0, degeneracy=Degeneracy.UNIFORM, m=rates.m)
    c1, c2, c3, c4 = coefficients(rates, g_inf)[:4]
    # Consistency identity: g_inf * (c4 + c2 - c1) == c3 + c4 * m exactly.
    # Its rounding scales with the terms that cancel, not with the result.
    lhs = g_inf * (c4 + c2 - c1)
    rhs = c3 + c4 * rates.m
    scale = max(1.0, g_inf * (c1 + c2 + c4), rhs)
    if abs(lhs - rhs) > 1e-10 * scale:
        raise AccuracyError(
            f"steady-constant identity violated: {lhs!r} != {rhs!r} for {rates!r}"
        )
    return SteadyConstants(
        g_inf=g_inf, degeneracy=Degeneracy.REGULAR, c1=c1, c2=c2, c3=c3, c4=c4, m=rates.m
    )
