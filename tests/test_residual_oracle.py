"""Euclidean projections of e^{alpha r^2} against the closed form in residual_oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residual_oracle
from gaussvar import (
    DEFAULT_EPS, chart_euclidean, gauss_rule, gram_matrix, hermite_target_rule,
    orthonormalize, project,
)
from gaussvar.polyring import squared_norms


@pytest.mark.parametrize("alpha", [0.125, 0.375])
def test_one_dim_coefficients_match_hermite_quadrature(alpha):
    # a_{2k} = integral e^{alpha x^2} h_{2k} e^{-x^2} for the orthonormal Hermite h_j,
    # on 200 Gauss-Hermite nodes
    x, w = np.polynomial.hermite.hermgauss(200)
    f = np.exp(alpha * x * x)
    for k, c in enumerate(residual_oracle.degree_energies(1, alpha, 6)):
        j = 2 * k
        h = np.polynomial.hermite.hermval(x, [0] * j + [1])
        h /= math.sqrt(math.sqrt(math.pi) * 2.0 ** j * math.factorial(j))
        assert float(np.sum(w * f * h)) ** 2 == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.45])
def test_energies_add_up_to_the_norm(n, alpha):
    energies = residual_oracle.degree_energies(n, alpha, 400)
    assert math.fsum(energies) == pytest.approx(residual_oracle.f_norm(n, alpha) ** 2,
                                                rel=1e-14)
    assert residual_oracle.residual_norms(n, alpha, 0)[0] == pytest.approx(
        math.sqrt(math.fsum(energies[1:])), rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), degree=st.integers(2, 10), alpha=st.floats(0.05, 0.375))
def test_projection_matches_closed_form(n, degree, alpha):
    # the CLI's euclidean project: the Gram matrix on gauss_rule, the target on
    # hermite_target_rule.  The residual comes from integral (f - p)^2, whose
    # error is eps f_norm^2 at most, so the norm's is eps f_norm^2 / residual.
    chart = chart_euclidean(n)
    f = lambda X: np.exp(alpha * squared_norms(X))
    gb = orthonormalize(gram_matrix(chart, degree, gauss_rule(chart, degree)))
    rule, _ = hermite_target_rule(chart, f, degree, DEFAULT_EPS)
    f_norm = residual_oracle.f_norm(n, alpha)
    exact = residual_oracle.residual_norms(n, alpha, degree)
    for rep, residual in zip(project(gb, f, rule), exact, strict=True):
        assert rep.f_norm == pytest.approx(f_norm, rel=1e-12)
        assert abs(rep.residual_norm - residual) <= (DEFAULT_EPS + 1e-15) * f_norm ** 2 / residual
