"""Closed-form projection of e^{alpha |x|^2} on R^n under e^{-|x|^2} dx.

Pure python, independent of gaussvar.  The orthonormal polynomials of
e^{-|x|^2} on R^n are products of normalized Hermite polynomials, and
f = e^{alpha |x|^2} is a product of 1-D factors, so each squared
coefficient of f is a product of 1-D ones.  In 1-D only even orders occur:

    a_{2k}^2 = sqrt(pi) / (1 - alpha) * C(2k, k) * (q^2 / 4)^k,
    q = alpha / (1 - alpha),

and these sum to ||f||^2 = sqrt(pi / (1 - 2 alpha)).  On R^n the squared
coefficients of total degree 2j add up to the n-fold convolution e_j of
that sequence, so the residual after projecting onto degree <= D is

    ||f - p_D||^2 = sum_{2j > D} e_j,

a sum of positive terms, free of the cancellation in ||f||^2 - ||p_D||^2.
"""

import math

_TAIL = 1e-40  # relative size of the first 1-D term the tail sum drops


def _one_dim(alpha: float, terms: int) -> list[float]:
    """a_0^2, a_2^2, ..., for ``terms`` even orders."""
    q2 = (alpha / (1.0 - alpha)) ** 2
    c = [math.sqrt(math.pi) / (1.0 - alpha)]
    for k in range(terms - 1):
        # C(2k+2, k+1) / C(2k, k) = 2 (2k+1) / (k+1)
        c.append(c[-1] * (2 * k + 1) / (2 * (k + 1)) * q2)
    return c


def degree_energies(n: int, alpha: float, terms: int) -> list[float]:
    """e_0, e_1, ...: squared coefficients of total degree 0, 2, 4, ... added up."""
    c = _one_dim(alpha, terms)
    e = c
    for _ in range(n - 1):
        e = [math.fsum(e[i] * c[j - i] for i in range(j + 1)) for j in range(terms)]
    return e


def f_norm(n: int, alpha: float) -> float:
    """||e^{alpha |x|^2}|| under e^{-|x|^2} dx on R^n."""
    return (math.pi / (1.0 - 2.0 * alpha)) ** (n / 4.0)


def residual_norms(n: int, alpha: float, degree: int) -> list[float]:
    """||f - p_D|| for D = 0..degree, p_D the projection onto degree <= D."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"e^(alpha |x|^2) is in L^2 for 0 <= alpha < 1/2 only, got {alpha}")
    q2 = (alpha / (1.0 - alpha)) ** 2
    # the 1-D terms fall like q^(2k); keep them until they drop below _TAIL,
    # and beyond every degree asked for
    terms = degree // 2 + 2 + (int(math.log(_TAIL) / math.log(q2)) if q2 > 0 else 0)
    e = degree_energies(n, alpha, terms)
    return [math.sqrt(math.fsum(e[D // 2 + 1:])) for D in range(degree + 1)]
