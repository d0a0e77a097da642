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

``integrate`` is the entry point.  It returns a ``DistributionTrajectory``,
whose ``at(t)`` gives p(t) as a ``TruncatedDistribution`` and whose
``mass`` and ``first_moment`` read its sums; ``gf_eval`` evaluates the
generating function of p.  The right-hand side is ``_Generator.rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError, TruncationError, ValidationError
from .model import ProcessRates, real, real_or_array

__all__ = [
    "TruncatedDistribution",
    "DistributionTrajectory",
    "integrate",
    "gf_eval",
]

_NEG_TOL = -1e-10
_TOL_FLOOR = 100 * float(np.finfo(float).eps)  # the least rtol scipy passes to LSODA; it raises a smaller one


@dataclass
class TruncatedDistribution:
    """Degree probabilities p_0 .. p_{K_max} at one instant."""

    p: np.ndarray


class _Generator:
    """f(p) = T(mu) p + s e_m for one rate set on degrees 0 .. n - 1.

    B0, B1 and B2 are each stored as three rows in the banded layout of
    LSODA and LAPACK, ``ab[1 + i - j, j] = T[i, j]``: column j of a row
    triple says where the mass of degree class j goes, to j - 1 (row 0),
    out of j (row 1) and to j + 1 (row 2).  The entry of row 2 in the last
    column would leave the truncation and is zero.  Rates that are not
    ProcessRates raise ValidationError; n must be at least m + 3, which
    ``integrate`` checks.

    ``rhs`` runs once per LSODA function evaluation, thousands of times a
    solve, so it sets up no arrays of its own beyond its result: it fills
    the weights (1, mu, 1 / mu) in place and writes their rows into one
    (3, n) buffer, whose diagonal, upper and lower views are fixed here.
    ``jac`` returns fresh rows, which LSODA may keep.
    """

    def __init__(self, rates: ProcessRates, n: int):
        r = rates
        if not isinstance(r, ProcessRates):
            raise ValidationError(f"rates must be ProcessRates, got {type(r).__name__}")
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
        self._w = np.ones(3)  # rhs's weights (1, mu, 1 / mu)
        self._wb = np.empty(3 * n)  # rhs's rows w @ B, flat
        ab = self._wb.reshape(3, n)
        self._diag, self._upper, self._lower = ab[1], ab[0, 1:], ab[2, :-1]

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

    def rhs(self, t, p):
        """T(mu) p + s e_m, a fresh array: the banded rows times p, diagonal first."""
        w = self._w
        w[1], w[2] = self._moment(p)
        np.matmul(w, self._b, out=self._wb)
        dp = self._diag * p
        dp[:-1] += self._upper * p[1:]
        dp[1:] += self._lower * p[:-1]
        if self._source:
            dp[self._m] += self._source
        return dp

    def jac(self, t, p):
        """T(mu), banded: the Jacobian without its rank-one term."""
        mu, inv_mu = self._moment(p)
        return self._rows((1.0, mu, inv_mu))


class DistributionTrajectory:
    """Dense-in-time solution of the truncated master equation.

    ``at``, ``mass`` and ``first_moment`` read p(t) for one number t in
    [0, t_end] only (``model.real_or_array``); any other t, NaN and an
    array included, raises ValidationError.

    ``stats`` holds the solver's ``rhs_evals``, ``jac_evals`` and ``steps``,
    the ``mass_drift`` that ``integrate`` checked against ``mass_tol``, and
    the ``tail_weight``, the largest p_{K_max} on the same probe times.
    """

    def __init__(self, sol, t_end: float, stats: dict):
        self._sol = sol
        self.t_end = t_end
        self.stats = stats

    def _p(self, t: float) -> np.ndarray:
        """p(t) from the dense output, for one number t in the integrated range only."""
        t = real_or_array(t, "t")
        if not isinstance(t, float):
            raise ValidationError(f"t must be one number, got an array of shape {t.shape}")
        if not (0.0 <= t <= self.t_end * (1.0 + 1e-12)):
            raise ValidationError(f"t = {t!r} outside the integrated range [0, {self.t_end!r}]")
        return self._sol(min(t, self.t_end))

    def at(self, t: float) -> TruncatedDistribution:
        """p(t) clipped at 0; an entry below -1e-10 or NaN means the solve failed and raises TruncationError."""
        p = self._p(t)
        if not np.all(p >= _NEG_TOL):
            raise TruncationError(
                f"negative or undefined probability {float(np.min(p))!r} at t = {t!r}; "
                "raise k_max or tighten the tolerance"
            )
        return TruncatedDistribution(np.clip(p, 0.0, None))

    def mass(self, t: float) -> float:
        return float(np.sum(self._p(t)))

    def first_moment(self, t: float) -> float:
        p = self._p(t)
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
    boundary.  A preferential rate with a nonpositive first moment of p0
    raises DomainError; a solver trial step that reaches one raises
    IntegrationError.  t_end and mass_tol must be finite real numbers > 0
    and tol one >= 100 eps, about 2.2e-14 (``model.real``): scipy quietly
    raises a smaller rtol to that floor, and the run would report a
    tolerance it did not use.
    """
    p0 = np.asarray(real_or_array(p0, "p0"))
    if p0.ndim != 1 or not np.all(np.isfinite(p0)):
        raise ValidationError("p0 must be a finite 1-d array")
    if np.any(p0 < _NEG_TOL) or abs(float(np.sum(p0)) - 1.0) > 1e-9:
        raise ValidationError("p0 must be a probability vector summing to 1")
    t_end, mass_tol = (real(name, v, 0.0, strict=True) for name, v in (("t_end", t_end), ("mass_tol", mass_tol)))
    tol = real("tol", tol, _TOL_FLOOR)
    gen = _Generator(rates, p0.size)
    if p0.size < rates.m + 3:
        raise ValidationError(f"k_max must be at least m + 2 = {rates.m + 2}, got {p0.size - 1}")
    start = np.clip(p0, 0.0, None)
    gen._moment(start)  # p0's own first moment: nonpositive is a DomainError
    try:
        sol = solve_ivp(
            gen.rhs,
            (0.0, t_end),
            start,
            method="LSODA",
            jac=gen.jac,
            lband=1,
            uband=1,
            rtol=tol,
            atol=tol * 1e-3,
            # LSODA's own first-step estimate breaks down on a span this
            # short (scipy 1.17 loops forever below about 1e-145); one step
            # covers it to rounding
            first_step=t_end if t_end < 1e-100 else None,
            dense_output=True,
        )
    except DomainError as exc:
        # the exact first moment is the Riccati trajectory from mu(0) > 0 and
        # stays positive, so a trial iterate got there, with mass piled up
        # at the truncation
        raise IntegrationError(
            f"a trial step reached a nonpositive first moment ({exc}); "
            f"probability may be reaching the truncation boundary k_max = {p0.size - 1}, raise k_max"
        ) from exc
    if sol.status != 0:
        raise IntegrationError(f"master-equation integration failed: {sol.message}")
    stats = {"rhs_evals": sol.nfev, "jac_evals": int(sol.njev), "steps": sol.t.size - 1}
    traj = DistributionTrajectory(sol.sol, t_end, stats)
    probe = [sol.sol(t) for t in np.linspace(0.0, t_end, 101)]
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
    """Generating function sum_k p_k x^k of a truncated distribution (Horner).

    dist is a ``TruncatedDistribution`` or a 1-d array of p_0 .. p_K, read
    by ``model.real_or_array``; anything else raises ValidationError.
    An array x gives an array.  A number x (``model.real_or_array``) gives
    a float, from Horner's rule on Python floats: the same operations in
    the same order as on an array, so the same bits, without numpy's cost
    of some microseconds for each operation on a 0-d array.  The array path
    updates one array in place, with no temporary per coefficient.
    """
    if isinstance(dist, TruncatedDistribution):
        p = dist.p
    else:
        p = real_or_array(dist, "dist")
        if np.ndim(p) != 1:
            raise ValidationError(f"dist must be a 1-d array of probabilities, got shape {np.shape(p)}")
    x = real_or_array(x, "x")
    if isinstance(x, float):
        total = 0.0
        for coeff in reversed(p.tolist()):
            total = total * x + coeff
        return total
    out = np.zeros_like(x)
    for coeff in p[::-1]:
        out *= x
        out += coeff
    return out
