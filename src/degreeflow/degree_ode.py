"""Truncated master equation for the degree distribution.

Integrates the coupled ODE system for p_k(t), 0 <= k <= K_max, that the
generating-function PDE encodes.  This is the package's independent oracle:
it never touches the characteristics solver, and it takes the first moment
mu = sum_k k p_k from p itself, never from the closed-form g, so agreement
between the two routes is a genuine two-sided check.  Truncation closes the
system with p_{K_max + 1} = 0; the resulting mass leakage scales with the
tail weight at K_max and is monitored against a tolerance.

The right-hand side is f(p) = T(mu) p + s e_m.  T(mu) is tridiagonal, with
diagonals B0 + mu B1 + B2 / mu, and s e_m injects new nodes at degree m;
these are the only place the eight process rates enter.  The system is
stiff: T has eigenvalues of order -K_max times the per-link rate, so an
explicit method takes stability-limited steps.  LSODA switches to BDF where
the problem is stiff and to Adams where it is not, and its Newton matrix is
T(mu) in banded form.  Since mu = k . p, the full Jacobian is
T(mu) + (B1 - B2 / mu^2) p k^T.  The rank-one term is left out: the
stiffness is in T, so LSODA takes about as many rhs evaluations without it,
and a banded matrix factorizes in O(K_max) where a dense one takes
O(K_max^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError, TruncationError, ValidationError
from .model import ProcessRates

__all__ = [
    "TruncatedDistribution",
    "DistributionTrajectory",
    "master_rhs",
    "integrate",
    "gf_eval",
    "first_moment",
]

_NEG_TOL = -1e-10


@dataclass
class TruncatedDistribution:
    """Degree probabilities p_0 .. p_{K_max} at one instant."""

    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if self.p.ndim != 1 or self.p.size == 0:
            raise ValidationError("p must be a nonempty 1-d array")
        if np.any(~np.isfinite(self.p)):
            raise ValidationError("p must be finite")
        if np.any(self.p < _NEG_TOL):
            raise DomainError(
                f"distribution entry {float(np.min(self.p))!r} is negative beyond {_NEG_TOL}"
            )
        self.p = np.clip(self.p, 0.0, None)

    @property
    def k_max(self) -> int:
        return self.p.size - 1

    @property
    def mass(self) -> float:
        return float(np.sum(self.p))


def _coerce(dist) -> np.ndarray:
    if isinstance(dist, TruncatedDistribution):
        return dist.p
    return np.asarray(dist, dtype=float)


class _Generator:
    """f(p) = T(mu) p + s e_m for one rate set on degrees 0 .. n - 1.

    B0, B1 and B2 are each stored as three rows in the banded layout of
    LSODA and LAPACK, ``ab[1 + i - j, j] = T[i, j]``: column j of a row
    triple says where the mass of degree class j goes, to j - 1 (row 0),
    out of j (row 1) and to j + 1 (row 2).  The entry of row 2 in the last
    column would leave the truncation and is zero.
    """

    def __init__(self, rates: ProcessRates, n: int):
        r = rates
        if (r.n_r > 0.0 or r.n_p > 0.0) and r.m >= n:
            raise ValidationError(
                f"truncation k_max = {n - 1} cannot hold the injection degree m = {r.m}"
            )
        self._needs_mu = r.l_p > 0.0 or r.n_p > 0.0
        self._k = k = np.arange(n, dtype=float)
        one, zero = np.ones(n), np.zeros(n)
        dec = np.array([k, -k, zero])  # a degree-biased end loses one link
        inc_u = np.array([zero, -one, one])  # a uniform node gains one link
        inc_p = np.array([zero, -k, k])  # a degree-biased node gains one link
        b0 = ((r.omega_r + r.omega_p + r.l_d) * dec + (2.0 * r.l_r + r.n_r * r.m) * inc_u
              + r.omega_p * inc_p)
        b0[1] -= r.n_r + r.n_p  # each new node dilutes every degree class
        b1 = r.n_d * dec + r.omega_r * inc_u
        b2 = (2.0 * r.l_p + r.n_p * r.m) * inc_p
        b = np.stack([b0, b1, b2])
        b[:, 2, -1] = 0.0
        self._b = b.reshape(3, -1)
        self._m, self._source = r.m, r.n_r + r.n_p

    def _moment(self, p: np.ndarray) -> tuple[float, float]:
        """mu and 1 / mu (0 when mu <= 0 and no term divides by it)."""
        mu = float(self._k @ p)
        if mu > 0.0:
            return mu, 1.0 / mu
        if self._needs_mu:
            raise DomainError("preferential attachment requires a positive first moment")
        return mu, 0.0

    def _rows(self, weights) -> np.ndarray:
        """w0 B0 + w1 B1 + w2 B2 in banded layout, shape (3, n)."""
        return (np.array(weights) @ self._b).reshape(3, -1)

    @staticmethod
    def _apply(ab: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Product of the banded tridiagonal matrix ``ab`` with p."""
        out = ab[1] * p
        out[:-1] += ab[0, 1:] * p[1:]
        out[1:] += ab[2, :-1] * p[:-1]
        return out

    def rhs(self, t, p):
        mu, inv_mu = self._moment(p)
        dp = self._apply(self._rows((1.0, mu, inv_mu)), p)
        if self._source:
            dp[self._m] += self._source
        return dp

    def jac(self, t, p):
        """T(mu), banded: the Jacobian without its rank-one term."""
        mu, inv_mu = self._moment(p)
        return self._rows((1.0, mu, inv_mu))


def master_rhs(p, rates: ProcessRates) -> np.ndarray:
    """Time derivative of the truncated degree distribution.

    Combines three shift operators (degree-biased decrease, uniform
    increase, preferential increase) weighted by the process rates, plus the
    injection of new nodes at degree m.  Preferential terms divide by the
    first moment mu; mu = 0 with a preferential rate active is a domain
    error.
    """
    p = _coerce(dist=p)
    return _Generator(rates, p.size).rhs(0.0, p)


class DistributionTrajectory:
    """Dense-in-time solution of the truncated master equation.

    ``stats`` holds the solver's ``rhs_evals``, ``jac_evals`` and ``steps``,
    the ``mass_drift`` that ``integrate`` checked against ``mass_tol``, and
    the ``tail_weight``, the largest p_{K_max} on the same probe times.
    """

    def __init__(self, sol, k_max: int, t_end: float, p0: np.ndarray, stats: dict):
        self._sol = sol
        self.k_max = k_max
        self.t_end = t_end
        self.p0 = p0
        self.stats = stats

    def at(self, t: float) -> TruncatedDistribution:
        if not (0.0 <= t <= self.t_end * (1.0 + 1e-12)):
            raise ValidationError(f"t = {t!r} outside the integrated range [0, {self.t_end!r}]")
        p = self._sol(min(t, self.t_end))
        if np.min(p) < _NEG_TOL:
            raise TruncationError(
                f"negative probability {float(np.min(p))!r} at t = {t!r}; "
                "raise k_max or tighten the tolerance"
            )
        return TruncatedDistribution(np.clip(p, 0.0, None), float(t))

    def mass(self, t: float) -> float:
        return float(np.sum(self._sol(min(t, self.t_end))))

    def first_moment(self, t: float) -> float:
        p = self._sol(min(t, self.t_end))
        return float(np.arange(p.size) @ p)


def integrate(
    p0,
    rates: ProcessRates,
    t_end: float,
    tol: float = 1e-10,
    mass_tol: float = 1e-6,
) -> DistributionTrajectory:
    """Integrate the truncated master equation on [0, t_end].

    ``p0`` fixes the truncation index (k_max = len(p0) - 1, required to be at
    least m + 2).  ``tol`` is the relative tolerance of LSODA, with an
    absolute tolerance of ``tol * 1e-3``.  Mass drift is sampled on a
    uniform time grid after the solve; drift beyond ``mass_tol`` raises
    TruncationError since it means probability reached the truncation
    boundary.
    """
    p0 = _coerce(p0)
    if p0.ndim != 1 or not np.all(np.isfinite(p0)):
        raise ValidationError("p0 must be a finite 1-d array")
    if np.any(p0 < _NEG_TOL) or abs(float(np.sum(p0)) - 1.0) > 1e-9:
        raise ValidationError("p0 must be a probability vector summing to 1")
    if p0.size < rates.m + 3:
        raise ValidationError(f"k_max must be at least m + 2 = {rates.m + 2}, got {p0.size - 1}")
    for name, value in (("t_end", t_end), ("tol", tol), ("mass_tol", mass_tol)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    gen = _Generator(rates, p0.size)
    sol = solve_ivp(
        gen.rhs,
        (0.0, float(t_end)),
        np.clip(p0, 0.0, None),
        method="LSODA",
        jac=gen.jac,
        lband=1,
        uband=1,
        rtol=tol,
        atol=tol * 1e-3,
        dense_output=True,
    )
    if sol.status != 0:
        raise IntegrationError(f"master-equation integration failed: {sol.message}")
    stats = {"rhs_evals": sol.nfev, "jac_evals": int(sol.njev), "steps": sol.t.size - 1}
    traj = DistributionTrajectory(sol.sol, p0.size - 1, float(t_end), p0.copy(), stats)
    probe = [sol.sol(t) for t in np.linspace(0.0, float(t_end), 101)]
    masses = np.array([float(np.sum(p)) for p in probe])
    drift = stats["mass_drift"] = float(np.max(np.abs(masses - masses[0])))
    stats["tail_weight"] = float(max(p[-1] for p in probe))
    if drift > mass_tol:
        raise TruncationError(
            f"mass drift {drift:.3e} exceeds {mass_tol:.1e}; probability is reaching "
            f"the truncation boundary k_max = {p0.size - 1}, raise k_max"
        )
    return traj


def gf_eval(dist, x):
    """Generating function sum_k p_k x^k of a truncated distribution (Horner)."""
    p = _coerce(dist)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for coeff in p[::-1]:
        out = out * x + coeff
    return float(out) if out.ndim == 0 else out


def first_moment(dist) -> float:
    """Mean degree sum_k k p_k."""
    p = _coerce(dist)
    return float(np.arange(p.size) @ p)
