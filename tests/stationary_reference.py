"""Stationary profiles G*(x) at 30 digits, the reference of ``test_steady``'s accuracy test.

G*(x) = int_0^inf c4 X(r)^m exp(int_0^r (c3 (X - 1) - c4)) dr along the
backward flow X' = (X - 1)(c1 X - c2), X(0) = x, is evaluated by mpmath in
z = e^{-c4 r}, where it reads int_0^1 X^m exp(c3 int_0^r (X - 1)) dz, with
X and int (X - 1) in closed form.  The z-axis is split at 2^-(2^j) so that
tanh-sinh quadrature also follows the slow approach of X to 1 when c1 = c2.
Each value takes about 0.2 s, so the values are stored; run

    PYTHONPATH=src python tests/stationary_reference.py

to write ``tests/stationary_reference.json`` again.
"""

import json
from pathlib import Path

import mpmath as mp

from degreeflow.model import ProcessRates, steady_constants

# ROADMAP item 19's five sets and FIG7: two two-singularity sets, and
# series-seeded sets with c2 > c1, with c1 = 0 and with c1 = c2
RATES = {
    "FIG2": ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=1, m=3),
    "R1": ProcessRates(0.2, 0.1, 0.3, 0.5, 0.2, 0.4, 0.3, 0.1, m=2),
    "c1_eq_c2": ProcessRates(omega_p=0.5055492059996985, n_r=1.9330585886194032, m=2),
    "FIG7": ProcessRates(omega_r=1, omega_p=0, l_d=1, l_r=1, l_p=0, n_d=1, n_r=1, n_p=0, m=3),
}
CONSTANTS = {"criterion5": (2.0, 1.0, 1.0, 2.0, 3), "alpha7": (1.0, 0.7, 0.5, 2.1, 2)}
X = (-1.0, -0.5, 0.0, 0.3, 0.6, 0.8, 0.95, 0.99, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 3e-12)
PATH = Path(__file__).with_suffix(".json")


def stationary(c1, c2, c3, c4, m, x, dps=30):
    """G*(x) to ``dps`` digits, for c4 > 0 and x below the attractor of the backward flow."""
    with mp.workdps(dps + 10):
        c1, c2, c3, c4, w = (mp.mpf(v) for v in (c1, c2, c3, c4, x))
        w -= 1
        kappa = c1 - c2

        def integrand(z):
            if z == 0:
                return mp.mpf(0)
            r = -mp.log(z) / c4
            phi = r if kappa == 0 else mp.expm1(kappa * r) / kappa
            p = -c1 * w * phi
            integral = w * phi if c1 == 0 else -mp.log1p(p) / c1
            return (1 + w * mp.exp(kappa * r) / (1 + p)) ** m * mp.exp(c3 * integral)

        value = mp.quad(integrand, [0] + [mp.mpf(2) ** -(2**j) for j in range(9, -1, -1)] + [1])
        return mp.nstr(value, dps)


def main():
    sets = dict(CONSTANTS)
    for name, rates in RATES.items():
        c = steady_constants(rates)
        sets[name] = (c.c1, c.c2, c.c3, c.c4, c.m)
    out = {name: {"constants": list(c), "x": list(X), "G": [stationary(*c, x) for x in X]} for name, c in sets.items()}
    PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
