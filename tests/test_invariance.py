"""Rotation invariance of the results that are built from |x| alone.

Replacing M by QM, for an orthogonal Q, changes neither e^{-|x|^2} dmu nor
|x|, so the moments, the growth volumes and their constant C, the chosen
truncation radius, the norm of the radial target e^{r^2/4} and both sides
of the weighted-equivalence check must agree up to rounding.  The rank and
the projection residuals are not asserted: the Gram-matrix elimination can
change them under a rotation.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvar import (
    MultiPoly,
    build_rule,
    gram_matrix,
    moment_table,
    orthonormalize,
    project,
    truncated_rule,
    weighted_equivalence_check,
)
from gaussvar.polyring import squared_norms
from gaussvar.variety import VarietyChart

RTOL = 1e-13  # the spreads measured over 100 draws per chart stay below 2e-15


def target(X):
    return np.exp(0.25 * squared_norms(X))


def rotated(chart, Q):
    return VarietyChart(chart.kind, chart.ambient_dim, chart.domains,
                        lambda U: chart.embed(U) @ Q.T, chart.volume_density,
                        chart.chart_id)


def study(chart):
    """Growth, R, I_0..I_6, f_norm of the target and its equivalence sides vs 1."""
    growth, rule = truncated_rule(chart, 12)
    R = rule.truncation_radius
    moments = [value for _, value, _ in moment_table(chart, range(7), rule).rows]
    f_norm = project(orthonormalize(gram_matrix(chart, 2, rule)), target, rule)[0].f_norm
    rule_rhs = build_rule(chart, R, [n + 16 for n in rule.nodes_per_dim])
    [sides] = weighted_equivalence_check(
        chart, [(target, MultiPoly.constant(chart.ambient_dim, 1.0))], rule, rule_rhs)
    return growth, R, moments, f_norm, sides


reference = functools.cache(study)


@pytest.mark.parametrize("fixture", ["euclid1", "cylinder", "graph_x2", "modgraph_z2",
                                     "circle"])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_leaves_radial_results_unchanged(fixture, seed, request):
    chart = request.getfixturevalue(fixture)
    n = chart.ambient_dim
    if n == 1:
        Q = -np.eye(1)  # the one orthogonal map of R other than the identity
    else:
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    growth, R, moments, f_norm, sides = reference(chart)
    growth_q, R_q, moments_q, f_norm_q, sides_q = study(rotated(chart, Q))
    assert R_q == R
    np.testing.assert_allclose(growth_q.volumes, growth.volumes, rtol=RTOL, atol=0)
    assert growth_q.C == pytest.approx(growth.C, rel=RTOL, abs=0)
    np.testing.assert_allclose(moments_q, moments, rtol=RTOL, atol=0)
    assert f_norm_q == pytest.approx(f_norm, rel=RTOL, abs=0)
    np.testing.assert_allclose(sides_q, sides, rtol=RTOL, atol=0)
