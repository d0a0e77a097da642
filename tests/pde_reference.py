"""The generating-function PDE written out literally, as the tests' reference.

G_t = H(G_x, G, x, t) with

    H(a, b, c, d) = (c-1)(A c - B) a + ((c-1) C - c4) b + c4 c^m,

A, B, C and c4 taken at the first moment g(d).  The solver never evaluates
H; the tests compare its transported values against it.
"""

from degreeflow.model import ProcessRates, coefficients


def evaluate_H(a, b, c, d, rates: ProcessRates, g):
    """H(a, b, c, d) with the slots standing for G_x, G, x and t; g is the first-moment trajectory."""
    k = coefficients(rates, float(g(d)))
    return (c - 1.0) * (c * k.A - k.B) * a + ((c - 1.0) * k.C - k.c4) * b + k.c4 * c**rates.m
