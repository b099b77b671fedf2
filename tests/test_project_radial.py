"""The 1-D projection of orthobasis.project_radial on revolutions, against finer panels."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvar import (
    MultiPoly, QuadratureError, chart_circle, chart_graph, chart_modulus_graph,
    chart_revolution, gram_matrix, orthonormalize, parse_poly, project, project_radial,
    quadrature, study_rules,
)
from gaussvar.cli import EXIT_NUMERICAL, EXIT_OK, main
from gaussvar.polyring import squared_norms


def poly(*coeffs):
    """The univariate polynomial with ``coeffs`` from the constant up."""
    return MultiPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})


def fine_run(chart, alpha, degree, eps=1e-12):
    """project_radial on 128 and 256 panels, reporting the 256-panel run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_PANELS", 128)
        return project_radial(chart, alpha, degree, eps)


@pytest.mark.parametrize("alpha", [0.125, 0.25, 0.375, 0.45, 0.49])
@pytest.mark.parametrize("f,h", [(poly(2.0, 0.0, 1.0), poly(0.0, 1.0)),
                                 (poly(1.0), poly(0.0, 0.0, 0.0, 1.0))],
                         ids=["2+u^2,u", "1,u^3"])
def test_default_panels_agree_with_256(f, h, alpha):
    chart = chart_revolution(f, h)
    for rep, ref in zip(project_radial(chart, alpha, 12), fine_run(chart, alpha, 12),
                        strict=True):
        assert abs(rep.f_norm - ref.f_norm) <= 1e-13 * ref.f_norm
        assert abs(rep.residual_norm - ref.residual_norm) <= 1e-13 * ref.f_norm
        assert len(rep.coefficients) == len(ref.coefficients)


def test_reports_are_prefixes_of_one_basis():
    # the cylinder's invariants are the powers of z, one kept vector per degree
    reports = project_radial(chart_revolution(poly(1.0), poly(0.0, 1.0)), 0.25, 8)
    assert [len(rep.coefficients) for rep in reports] == list(range(1, 10))
    for rep, nxt in zip(reports, reports[1:]):
        np.testing.assert_array_equal(nxt.coefficients[:len(rep.coefficients)],
                                      rep.coefficients)
    for rep in reports:
        assert math.hypot(rep.residual_norm, *rep.coefficients) == pytest.approx(
            rep.f_norm, rel=1e-12)


def test_a_bounded_revolution_agrees_with_the_gram_path():
    # on [-2, 3] the support is the domain, and the shared truncated rule of the
    # Gram path is exact there to rounding
    chart = chart_revolution(poly(1.0), poly(0.0, 1.0), u1_domain=(-2.0, 3.0))
    target = lambda X: np.exp(0.25 * squared_norms(X))  # noqa: E731
    gram_rule, rule = study_rules(chart, 6, "gauss", target)
    ref = project(orthonormalize(gram_matrix(chart, 6, gram_rule)), target, rule)
    for rep, want in zip(project_radial(chart, 0.25, 6), ref, strict=True):
        assert abs(rep.f_norm - want.f_norm) <= 1e-13 * want.f_norm
        assert abs(rep.residual_norm - want.residual_norm) <= 1e-13 * want.f_norm


def test_an_overflowing_target_on_a_bounded_revolution_raises():
    # a compact chart takes any finite alpha; e^{400 r^2} overflows there
    chart = chart_revolution(poly(1.0), poly(0.0, 1.0), u1_domain=(-2.0, 3.0))
    with pytest.raises(QuadratureError, match="non-finite squared target norm"):
        project_radial(chart, 400.0, 4)


@pytest.mark.parametrize("alpha", [0.5, 0.75, math.nan])
def test_alpha_at_or_past_one_half_is_refused_on_a_non_compact_chart(alpha):
    with pytest.raises(ValueError, match="alpha < 1/2"):
        project_radial(chart_revolution(poly(1.0), poly(0.0, 1.0)), alpha, 4)


@pytest.mark.parametrize("chart", [chart_modulus_graph(parse_poly("1*x1^2", 1)),
                                   chart_graph([parse_poly("1*x1^2", 1)]), chart_circle()],
                         ids=["modulus_graph", "graph", "circle"])
def test_other_charts_are_refused(chart):
    with pytest.raises(ValueError, match="no 1-D projection"):
        project_radial(chart, 0.25, 4)


coefficient = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 0.1)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.5, 3.0), b=st.sampled_from([0.0, 0.5, 1.0]), c=coefficient,
       d=st.sampled_from([0.0, -1.0, -0.25, 0.25, 1.0]), alpha=st.floats(0.0, 0.49),
       degree=st.integers(2, 12))
def test_a_drawn_revolution_certifies_within_eps_or_exits_1(tmp_path_factory, a, b, c, d,
                                                            alpha, degree):
    # f = a + b u^2, h = c u + d u^3; with b = 0 and c d < 0 the density |h'| kinks
    # at u = +-sqrt(-c / 3d), inside a panel, and the run must exit 1.  A run that
    # exits 0 moved by at most --eps from 32 to 64 panels, and agrees with 256 within
    # 1e-10 f_norm: on such charts the invariants of one degree can be nearly
    # dependent, and a one-ulp change of the chart's values then moves a residual by
    # up to 5e-11 f_norm from D = 6 on, which no panel count settles (ROADMAP).
    f, h = poly(a, 0.0, b), poly(0.0, c, 0.0, d)
    out = tmp_path_factory.mktemp("o")
    spec = out / "spec.json"
    spec.write_text(json.dumps({"kind": "revolution", "f": f.to_text(), "h": h.to_text()}))
    code = main(["project", "--spec", str(spec), "--degree", str(degree),
                 "--alpha", repr(alpha), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    if code == EXIT_NUMERICAL:
        return
    assert not (b == 0.0 and c * d < 0.0), "a kinked density passed the panel check"
    ref = fine_run(chart_revolution(f, h), alpha, degree, eps=math.inf)
    rows = [line.split(",") for line in (out / "projection.csv").read_text().splitlines()[1:]]
    for D, residual, f_norm, _ in rows:
        assert abs(float(f_norm) - ref[0].f_norm) <= 1e-12 * ref[0].f_norm
        assert abs(float(residual) - ref[int(D)].residual_norm) <= 1e-10 * ref[0].f_norm
