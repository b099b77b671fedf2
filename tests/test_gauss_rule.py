"""The exact Gram rules of quadrature.gauss_rule, against perfbench's closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussvar import (
    GAUSS_DELTA, MultiPoly, NoExactRuleError, QuadratureError, QuadRule,
    build_rule, chart_circle, chart_euclidean, chart_graph, chart_modulus_graph,
    chart_revolution, discretize, gauss_rule, gram_matrix, hermite_target_rule,
    load_chart, orthonormalize, parse_poly, quadrature, study_rules, truncated_rule,
)
from gaussvar.cli import EXIT_OK, main
from gaussvar.polyring import squared_norms
from gaussvar.variety import VarietyChart
from test_bench_contract import load_bench_modules

_, CHECK, ORACLES = load_bench_modules("workloads", "check", "oracles")
TOL = 1e-13  # Gram entries against sqrt(G_ii G_jj)


def gram_error(G, ref) -> float:
    d = np.sqrt(np.diag(ref))
    return float(np.max(np.abs(G - ref) / np.outer(d, d)))


def exact_gram(chart, degree):
    return gram_matrix(chart, degree, gauss_rule(chart, degree)).gram


def cylinder_of(a):
    return chart_revolution(MultiPoly.constant(1, a), parse_poly("1*x1^1", 1))


def paraboloid(c):
    return chart_modulus_graph(parse_poly(f"{c!r}*x1^2", 1))


CYLINDER = cylinder_of(1.0)


class TestClosedForms:
    @settings(max_examples=12, deadline=None)
    @given(degree=st.integers(0, 12), a=st.floats(0.5, 2.0))
    @example(degree=12, a=0.5)
    @example(degree=12, a=2.0)
    def test_cylinder(self, degree, a):
        ref = CHECK.oracle_gram("cylinder", degree, a, ())
        assert gram_error(exact_gram(cylinder_of(a), degree), ref) <= TOL

    @settings(max_examples=13, deadline=None)
    @given(degree=st.integers(0, 12))
    def test_circle(self, degree):
        ref = CHECK.oracle_gram("circle", degree, 1.0, ())
        assert gram_error(exact_gram(chart_circle(), degree), ref) <= TOL

    @settings(max_examples=12, deadline=None)
    @given(degree=st.integers(0, 12), c=st.floats(0.5, 2.0))
    @example(degree=12, c=0.5)
    @example(degree=12, c=2.0)
    def test_paraboloid(self, degree, c):
        # the radial integrals come from scipy quad at epsrel 1e-13
        radial = tuple(sorted(ORACLES.paraboloid_radial(c, 4 * degree).items()))
        ref = CHECK.oracle_gram("modgraph", degree, c, radial)
        assert gram_error(exact_gram(paraboloid(c), degree), ref) <= TOL


class TestShape:
    @pytest.mark.parametrize("spec,degree,nodes", [
        ({"kind": "euclidean", "n": 2}, 3, (4, 4)),
        ({"kind": "circle"}, 3, (7,)),
        ({"kind": "revolution", "f": "1", "h": "1*x1^1"}, 3, (4, 7)),
        ({"kind": "revolution", "f": "2+1*x1^2", "h": "1*x1^1"}, 3, (7, 7)),
        ({"kind": "graph", "components": ["1*x1^3"]}, 2, (7,)),
        ({"kind": "graph", "components": ["1*x1^2"], "u1_domain": [-1, 2]}, 2, (5,)),
        ({"kind": "modulus_graph", "F": "1*x1^2"}, 3, ()),
        ({"kind": "modulus_graph", "F": "2*x1^3"}, 2, ()),
    ])
    def test_node_counts(self, spec, degree, nodes):
        chart = load_chart(spec)
        rule = gauss_rule(chart, degree)
        assert rule.nodes_per_dim == nodes and rule.truncation_radius == math.inf
        if chart.kind == "modulus_graph":  # (kD + 1) radii times 2D + 1 angles
            k = chart.param_degree
            assert rule.points.shape == ((k * degree + 1) * (2 * degree + 1), 2)

    def test_polar_points(self):
        rule = gauss_rule(paraboloid(1.0), 2)
        rho = np.hypot(rule.points[:, 0], rule.points[:, 1])
        assert np.unique(np.round(rho, 12)).size == 5  # k D + 1 = 5 radii
        assert rule.kinds == ("unbounded", "unbounded") and rule.dims == ()

    def test_weights_carry_the_measure(self, cylinder):
        rule = gauss_rule(cylinder, 2)
        disc = discretize(cylinder, rule)
        assert rule.carries_measure and disc.dmu is None
        # unscaled and uncopied: a view of the rule's own weights
        assert np.shares_memory(disc.weights(), rule.weights)
        np.testing.assert_array_equal(disc.weights(), rule.weights)
        np.testing.assert_allclose(disc.weights(scale=0.5),
                                   rule.weights * np.exp(0.5 * disc.r2), rtol=1e-15)
        with pytest.raises(QuadratureError, match="plain dmu"):
            disc.weights("none")

    def test_carries_measure_is_derived_from_the_radius(self, cylinder, cylinder_rule):
        assert not cylinder_rule.carries_measure
        assert QuadRule(gauss_rule(cylinder, 2).dims, math.inf).carries_measure
        with pytest.raises(AttributeError):
            cylinder_rule.carries_measure = True
        with pytest.raises(TypeError):
            QuadRule(cylinder_rule.dims, 5.0, carries_measure=True)

    def test_a_rule_without_dims_needs_points(self):
        with pytest.raises(ValueError, match="points, weights and kinds"):
            QuadRule((), math.inf)
        points, weights, kinds = np.zeros((1, 2)), np.ones(1), ("unbounded",) * 2
        assert QuadRule((), math.inf, points, weights, kinds).carries_measure
        with pytest.raises(ValueError, match="R = inf"):
            QuadRule((), 5.0, points, weights, kinds)

    @pytest.mark.parametrize("chart", [
        chart_circle(),
        chart_graph([parse_poly("1*x1^2", 1)], domain=(-1.0, 2.0)),
    ], ids=["circle", "bounded-graph"])
    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_a_truncated_rule_needs_a_finite_radius(self, chart, radius):
        with pytest.raises(QuadratureError, match="finite radius"):
            build_rule(chart, radius)

    def test_negative_degree(self, cylinder):
        with pytest.raises(ValueError):
            gauss_rule(cylinder, -1)


class TestExactness:
    # a rule exact at degree D integrates the degree-D Gram matrix as the rule for
    # D + 4 does, and as a 200-node Legendre rule does on a bounded interval
    @pytest.mark.parametrize("chart", [
        chart_graph([parse_poly("1*x1^2", 1)]),
        chart_graph([parse_poly("1*x1^2", 1), parse_poly("0.5*x1^3", 1)]),
        chart_revolution(parse_poly("2+1*x1^2", 1), parse_poly("1*x1^1", 1)),
        chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1+0.3*x1^3", 1)),
        chart_modulus_graph(parse_poly("0.7*x1^3", 1)),
        # weights whose support is far narrower than sqrt(745), or off the origin
        chart_graph([parse_poly("100*x1^2", 1)]),
        chart_graph([parse_poly("1*x1^5", 1), parse_poly("1*x1^1", 1)]),
        chart_revolution(parse_poly("1+1*x1^2", 1), parse_poly("1*x1^3", 1)),
        chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1-30", 1)),
        chart_modulus_graph(parse_poly("100*x1^2", 1)),
        chart_modulus_graph(parse_poly("(1+2j)*x1^3", 1)),
    ], ids=["graph-x2", "twisted-cubic", "revolution-2+u2", "revolution-h-cubic",
            "modgraph-z3", "graph-100x2", "graph-x5-x", "revolution-kinked-density",
            "revolution-shifted", "modgraph-100z2", "modgraph-complex-z3"])
    def test_agrees_with_a_larger_rule(self, chart):
        degree = 4
        G = exact_gram(chart, degree)
        ref = gram_matrix(chart, degree, gauss_rule(chart, degree + 4)).gram
        assert gram_error(G, ref) <= TOL

    @pytest.mark.parametrize("shift", [60, 200, 1000])
    def test_a_cylinder_shifted_in_its_parameter_is_the_cylinder(self, shift):
        # the same surface, with its weight about u1 = shift: past sqrt(745) from 0
        chart = chart_revolution(parse_poly("1", 1), parse_poly(f"1*x1^1-{shift}", 1))
        gb = gram_matrix(chart, 6, gauss_rule(chart, 6))
        assert gram_error(gb.gram, exact_gram(CYLINDER, 6)) <= 1e-12
        assert orthonormalize(gb).rank == 49  # the cylinder's Hilbert function at D = 6

    def test_bounded_graph(self):
        chart = chart_graph([parse_poly("1*x1^2", 1)], domain=(-1.0, 2.0))
        ref = gram_matrix(chart, 5, build_rule(chart, 2.0, 200)).gram
        assert gram_error(exact_gram(chart, 5), ref) <= TOL


class TestNoExactRule:
    @pytest.mark.parametrize("chart", [
        chart_modulus_graph(parse_poly("1+1*x1^2", 1)),
        VarietyChart("revolution", 3, CYLINDER.domains, CYLINDER.embed,
                     CYLINDER.volume_density, "no-degree"),
    ], ids=["general-modulus-graph", "unknown-parameter-degree"])
    def test_raises(self, chart):
        with pytest.raises(NoExactRuleError, match="no exact Gram rule"):
            gauss_rule(chart, 2)

    @pytest.mark.parametrize("chart,k", [
        (chart_graph([parse_poly("1*x1^3", 1)]), 2),
        (chart_graph([parse_poly("1*x1^3", 1)]), 1),
        (chart_revolution(parse_poly("2+1*x1^2", 1), parse_poly("1*x1^1", 1)), 1),
        (chart_modulus_graph(parse_poly("1*x1^3", 1)), 2),
    ], ids=["graph-x3-k2", "graph-x3-k1", "revolution-2+u2-k1", "modgraph-z3-k2"])
    def test_a_parameter_degree_below_that_of_r2_raises(self, chart, k):
        # r^2 interpolated at too low a degree misses the chart at its roots
        with pytest.raises(NoExactRuleError, match=f"off 745 .* degree-{2 * k} interpolant"):
            gauss_rule(dataclasses.replace(chart, param_degree=k), 4)

    @pytest.mark.parametrize("spec,weight", [
        ('{"kind": "modulus_graph", "F": "1+1*x1^2"}', "gauss"),
        ('{"kind": "circle"}', "none"),
    ], ids=["general-modulus-graph", "circle-weight-none"])
    def test_basis_falls_back_to_the_truncated_rule(self, spec, weight, tmp_path,
                                                    monkeypatch):
        calls = []
        original = quadrature.truncated_rule
        monkeypatch.setattr(quadrature, "truncated_rule",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        path = tmp_path / "spec.json"
        path.write_text(spec)
        assert main(["basis", "--spec", str(path), "--degree", "3", "--weight", weight,
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == 1


def poly(coeffs):
    """The univariate polynomial sum_j coeffs[j] u^j."""
    return MultiPoly(1, {(j,): c for j, c in enumerate(coeffs) if c})


def shifted(coeffs, s):
    """The polynomial sum_j coeffs[j] (u - s)^j, expanded."""
    P = np.polynomial.Polynomial
    return poly(P(coeffs)(P([-s, 1.0])).coef.tolist())


HALVES = st.integers(-6, 6).map(lambda i: i / 2.0)
WEIGHT_CHARTS = st.one_of(
    st.lists(st.lists(HALVES, min_size=1, max_size=5), min_size=1, max_size=2).map(
        lambda comps: chart_graph([poly(c) for c in comps])),
    st.builds(  # f = a + b v^2 > 0, h = c v + d v^2 + e v^3, v = u - s: no kink
        lambda a, b, c, d, e, s: chart_revolution(shifted([a, 0.0, b], s),
                                                  shifted([0.0, c, d, e], s)),
        st.floats(0.5, 4.0), st.sampled_from([0.5, 1.0]),  # f' = 0 only where h' = c
        st.sampled_from([-2.0, -0.5, 0.5, 1.0, 3.0]), HALVES, HALVES,
        st.floats(-10.0, 10.0)),
    st.builds(lambda c, k: chart_modulus_graph(poly([0.0] * k + [c])),
              st.floats(0.01, 100.0) | st.complex_numbers(min_magnitude=0.01,
                                                          max_magnitude=100.0),
              st.integers(1, 4)),
)


class TestWeightSupport:
    """On an unbounded parameter the weight's support is where r^2 < 745, found
    from the roots of r^2(t) - 745; a dense scan of r^2 is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(chart=WEIGHT_CHARTS)
    @example(chart=chart_revolution(poly([1.0]), poly([-1000.0, 1.0])))
    @example(chart=chart_graph([poly([0.0, 0.0, 0.0, 0.0, 0.0, 3.0])]))
    def test_the_support_is_where_r2_is_below_745(self, chart):
        spans = []
        original = quadrature._panels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_panels",
                       lambda lo, hi, panels: spans.append((lo, hi)) or original(lo, hi, panels))
            try:
                gauss_rule(chart, 2)
            except NoExactRuleError as exc:  # a density too rough for the panels
                assert "finer discretization moves" in str(exc)
        (lo, hi), polar = spans[0], chart.kind == "modulus_graph"
        assert spans[1] == (lo, hi)  # the finer discretization: same support, more panels

        def r2(t):
            U = np.zeros((t.size, chart.intrinsic_dim))
            U[:, 0] = t
            return chart.radial_sq(U)

        ends = r2(np.array([hi] if polar else [lo, hi]))
        np.testing.assert_allclose(ends, 745.0, rtol=1e-9)
        assert lo == 0.0 if polar else lo < hi
        # the 4097-point scan the roots replaced, on a window twice the support's
        half = max(0.5 * (hi - lo), math.sqrt(745.0))
        grid = np.linspace(0.5 * (lo + hi) - 2.0 * half, 0.5 * (lo + hi) + 2.0 * half, 4097)
        outside = grid[(grid < lo) | (grid > hi)]
        if polar:
            outside = outside[outside >= 0.0]
        assert np.all(r2(outside) >= 745.0 * (1.0 - 1e-9))


@pytest.fixture
def stubbed(monkeypatch):
    """Make _lanczos_gauss scale the weights of the calls named by ``which``."""
    original = quadrature._lanczos_gauss

    def stub(which):
        calls = []

        def lanczos(t, w, n):
            x, lam = original(t, w, n)
            calls.append(n)
            return x, lam * (1.0 + 1e-9) if which(len(calls) - 1) else lam
        monkeypatch.setattr(quadrature, "_lanczos_gauss", lanczos)
    return stub


class TestCertificate:
    def test_moments_off_the_discretization_raise(self, stubbed, cylinder):
        stubbed(lambda call: True)
        with pytest.raises(NoExactRuleError, match="misses moment 0 of its weight"):
            gauss_rule(cylinder, 4)

    def test_a_rule_that_moves_under_refinement_raises(self, stubbed, cylinder):
        stubbed(lambda call: call == 0)  # the coarser discretization's rule
        with pytest.raises(NoExactRuleError, match=r"finer discretization moves the 5-node "
                                                  r"Gauss rule by 1e-09"):
            gauss_rule(cylinder, 4)

    def test_basis_falls_back_when_the_certificate_fails(self, stubbed, tmp_path,
                                                         monkeypatch):
        stubbed(lambda call: True)
        calls = []
        original = quadrature.truncated_rule
        monkeypatch.setattr(quadrature, "truncated_rule",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        spec = tmp_path / "cylinder.json"
        spec.write_text('{"kind": "revolution", "f": "1", "h": "1*x1^1"}')
        assert main(["basis", "--spec", str(spec), "--degree", "4",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == 1

    def test_the_delta_is_documented(self):
        assert GAUSS_DELTA == 1e-11
        assert "GAUSS_DELTA" in gauss_rule.__doc__


@pytest.mark.parametrize("spec,mass", [
    ({"kind": "euclidean", "n": 1}, math.sqrt(math.pi)),
    ({"kind": "euclidean", "n": 2}, math.pi),
    ({"kind": "euclidean", "n": 3}, math.pi ** 1.5),
    ({"kind": "circle"}, 2.0 * math.pi * math.exp(-1.0)),
    ({"kind": "graph", "components": ["1*x1^2"]}, None),
    ({"kind": "revolution", "f": "1", "h": "1*x1^1"},
     2.0 * math.pi ** 1.5 * math.exp(-1.0)),
    ({"kind": "modulus_graph", "F": "1*x1^2"}, None),  # the polar rule
], ids=["euclid1", "euclid2", "euclid3", "circle", "graph-x2", "cylinder", "modgraph-z2"])
def test_untruncated_rules_carry_the_measure(spec, mass):
    # R = inf, and discretize takes the weights as they are: no density, no plain dmu
    chart = load_chart(spec)
    rule = gauss_rule(chart, 4)
    calls = []
    spied = dataclasses.replace(chart, _density=lambda U: calls.append(U) or chart._density(U))
    disc = discretize(spied, rule)
    assert rule.truncation_radius == math.inf and rule.carries_measure
    assert not calls and disc.dmu is None
    with pytest.raises(QuadratureError, match="plain dmu"):
        disc.weights("none")
    if mass is not None:  # the Gaussian mass in closed form
        assert disc.integrate(1.0) == pytest.approx(mass, rel=1e-14)


def exp_target(alpha):
    return lambda X: np.exp(alpha * squared_norms(X))


def exact(chart, degree):
    rule = gauss_rule(chart, degree)
    return rule, rule


def hermite(chart, degree):
    return (gauss_rule(chart, degree),
            hermite_target_rule(chart, exp_target(0.25), degree)[0])


def truncated(chart, degree):
    rule = truncated_rule(chart, 2 * degree)[1]
    return rule, rule


EUCLID3 = chart_euclidean(3)


class TestStudyRules:
    @pytest.mark.parametrize("chart,weight,alpha,direct,uncertified", [
        (EUCLID3, "gauss", None, exact, False),
        (EUCLID3, "gauss", 0.25, hermite, False),
        (CYLINDER, "gauss", None, exact, False),
        (CYLINDER, "gauss", 0.25, truncated, False),
        (chart_modulus_graph(parse_poly("1+1*x1^2", 1)), "gauss", None, truncated, False),
        (chart_circle(), "none", None, truncated, False),
        (CYLINDER, "gauss", None, truncated, True),
    ], ids=["euclid3", "euclid3-target", "cylinder", "cylinder-target",
            "general-modulus-graph", "circle-weight-none", "uncertified-cylinder"])
    def test_the_rules_are_the_direct_calls(self, chart, weight, alpha, direct,
                                            uncertified, stubbed):
        if uncertified:
            stubbed(lambda call: True)
        target = None if alpha is None else exp_target(alpha)
        rules = study_rules(chart, 4, weight, target)
        for rule, ref in zip(rules, direct(chart, 4), strict=True):
            np.testing.assert_array_equal(rule.points, ref.points)
            np.testing.assert_array_equal(rule.weights, ref.weights)
        # only a euclidean target gets a rule of its own
        assert (rules[0] is rules[1]) == (direct is not hermite)

    def test_a_target_ladder_that_misses_eps_raises(self):
        with pytest.raises(QuadratureError, match="no Gauss-Hermite target rule meets"):
            study_rules(EUCLID3, 8, target=exp_target(0.45))

    def test_hermite_underflow_does_not_fall_back(self):
        with pytest.raises(QuadratureError, match="degree 400") as err:
            study_rules(chart_euclidean(1), 400)
        assert not isinstance(err.value, NoExactRuleError)
