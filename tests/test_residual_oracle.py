"""Projections of e^{alpha r^2} on R^n and on cylinders against the closed form in
residual_oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residual_oracle
from gaussvar import MultiPoly, chart_euclidean, chart_revolution, parse_poly, project_radial

ALPHAS = [0.125, 0.25, 0.375, 0.45, 0.49]


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


def assert_matches(reports, f_norm, residuals):
    for rep, residual in zip(reports, residuals, strict=True):
        assert abs(rep.f_norm - f_norm) <= 1e-12 * f_norm
        assert abs(rep.residual_norm - residual) <= 1e-12 * f_norm


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), degree=st.integers(2, 20), alpha=st.floats(0.05, 0.49))
def test_projection_matches_closed_form(n, degree, alpha):
    # the 1-D projection of the CLI's euclidean project, certified at the default eps
    assert_matches(project_radial(chart_euclidean(n), alpha, degree),
                   residual_oracle.f_norm(n, alpha),
                   residual_oracle.residual_norms(n, alpha, degree))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_euclidean_projection_up_to_alpha_049(n, alpha):
    assert_matches(project_radial(chart_euclidean(n), alpha, 12),
                   residual_oracle.f_norm(n, alpha),
                   residual_oracle.residual_norms(n, alpha, 12))


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_cylinder_projection_up_to_alpha_049(a, alpha):
    # on the cylinder of radius a, f = e^{alpha a^2} e^{alpha z^2} under 2 pi a e^{-a^2}
    # e^{-z^2} dz: the n = 1 closed form times sqrt(2 pi a e^{(2 alpha - 1) a^2})
    scale = math.sqrt(2.0 * math.pi * a * math.exp((2.0 * alpha - 1.0) * a * a))
    cylinder = chart_revolution(MultiPoly.constant(1, a), parse_poly("1*x1^1", 1))
    assert_matches(project_radial(cylinder, alpha, 12),
                   scale * residual_oracle.f_norm(1, alpha),
                   [scale * r for r in residual_oracle.residual_norms(1, alpha, 12)])
