import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from gaussvar import quadrature
from gaussvar.orthobasis import weighted_equivalence_check
from gaussvar.polyring import MultiPoly
from gaussvar.quadrature import (
    DEFAULT_NODES,
    DimRule,
    QuadRule,
    QuadratureError,
    build_rule,
    choose_truncation,
    discretize,
    gauss_rule,
    gaussian_moment,
    integrability_scan,
    integrate,
    moment_table,
    shell_moment_sum,
    tail_budget,
    truncated_rule,
)
from gaussvar.polyring import squared_norms
from gaussvar.variety import VarietyChart, chart_euclidean, chart_graph, estimate_growth


class TestRuleInvariants:
    @pytest.mark.parametrize("fixture", [
        "euclid1_rule", "cylinder_rule", "graph_x2_rule", "modgraph_z2_rule",
        "circle_rule",
    ])
    def test_weights_finite_and_box_volume(self, fixture, request):
        rule = request.getfixturevalue(fixture)
        assert np.all(np.isfinite(rule.weights))
        total = float(np.sum(rule.weights))
        box_volume = math.prod(d.hi - d.lo for d in rule.dims)
        assert total == pytest.approx(box_volume, rel=1e-12)

    @pytest.mark.parametrize("fixture", [
        "euclid1", "cylinder", "graph_x2", "modgraph_z2", "circle",
    ])
    def test_rule_kinds_are_domain_kinds(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        kinds = [d.kind for d in chart.domains]
        rule = build_rule(chart, 5)
        assert [d.kind for d in rule.dims] == kinds
        assert rule.nodes_per_dim == tuple(DEFAULT_NODES[k] for k in kinds)

    @pytest.mark.parametrize("n", [4, 7, 64, 100])
    def test_periodic_rule_is_the_trapezoid_on_the_whole_angle(self, cylinder, n):
        periodic = build_rule(cylinder, 3.0, [8, n]).dims[1]
        assert (periodic.lo, periodic.hi) == (0.0, 2.0 * math.pi)
        np.testing.assert_array_equal(periodic.nodes, 2.0 * math.pi * np.arange(n) / n)
        np.testing.assert_array_equal(periodic.weights, np.full(n, 2.0 * math.pi / n))

    def test_periodic_weights_uniform(self, cylinder_rule):
        periodic = cylinder_rule.dims[1]
        assert periodic.kind == "periodic"
        assert np.all(periodic.weights == periodic.weights[0])

    def test_bounded_rule_polynomial_exactness(self):
        chart = chart_graph([], domain=(-1.0, 1.0))
        rule = build_rule(chart, 2, 20)
        val = integrate(chart, lambda X: X[:, 0] ** 4, rule, weight="none")
        assert val == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_periodic_rule_kills_fourier_mode(self, circle, circle_rule):
        # cos 3u = Re (x + iy)^3 = x^3 - 3 x y^2
        val = integrate(circle, lambda X: X[:, 0] ** 3 - 3.0 * X[:, 0] * X[:, 1] ** 2,
                        circle_rule, weight="none")
        assert abs(val) <= 1e-14

    def test_invalid_node_count(self, euclid1):
        with pytest.raises(QuadratureError):
            build_rule(euclid1, 5, 3)

    @pytest.mark.parametrize("counts", [np.int64(8), np.array([8, 8]),
                                        [np.int32(8), np.uint8(8)]])
    def test_numpy_integer_counts_are_int_counts(self, cylinder, counts):
        rule, expected = build_rule(cylinder, 5.0, counts), build_rule(cylinder, 5.0, 8)
        assert rule.nodes_per_dim == (8, 8)
        assert all(type(n) is int for n in rule.nodes_per_dim)
        for got, want in zip(rule.dims, expected.dims):
            assert got.nodes.tobytes() == want.nodes.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        assert rule.points.tobytes() == expected.points.tobytes()
        assert rule.weights.tobytes() == expected.weights.tobytes()

    @pytest.mark.parametrize("count", [True, np.True_, 8.0, np.float64(8.0), np.array(8.0),
                                       np.int64(3), 3, "8"])
    def test_non_integer_or_small_counts_are_named(self, euclid1, cylinder, count):
        # text is one count, not a sequence of one-character counts
        for chart, counts in ((cylinder, count), (cylinder, [count, 8]),
                              (euclid1, count), (euclid1, [count])):
            with pytest.raises(QuadratureError, match=re.escape(f"got {count!r}")):
                build_rule(chart, 5.0, counts)

    def test_mismatched_node_tuple(self, cylinder):
        with pytest.raises(QuadratureError):
            build_rule(cylinder, 5, (16,))

    def test_rule_chart_mismatch(self, euclid1, cylinder_rule):
        with pytest.raises(QuadratureError):
            integrate(euclid1, 1.0, cylinder_rule)


class TestHermiteRule:
    @pytest.mark.parametrize("n,degree", [(1, 0), (2, 3), (3, 6)])
    def test_degree_plus_one_nodes_untruncated(self, n, degree):
        rule = gauss_rule(chart_euclidean(n), degree)
        assert rule.nodes_per_dim == (degree + 1,) * n
        assert rule.truncation_radius == math.inf
        assert all((d.kind, d.lo, d.hi) == ("unbounded", -math.inf, math.inf)
                   for d in rule.dims)

    def test_gauss_weights_come_back(self):
        rule = gauss_rule(chart_euclidean(2), 9)
        x, w = np.polynomial.hermite.hermgauss(10)
        np.testing.assert_array_equal(rule.dims[0].nodes, x)
        weights = discretize(chart_euclidean(2), rule).weights()
        np.testing.assert_array_equal(weights, np.outer(w, w).ravel())

    def test_exact_to_twice_the_degree_plus_one(self):
        # integral x^10 e^{-x^2} = Gamma(11/2), on 6 nodes
        val = integrate(chart_euclidean(1), lambda X: X[:, 0] ** 10,
                        gauss_rule(chart_euclidean(1), 5))
        assert val == pytest.approx(math.gamma(5.5), rel=1e-14)

    def test_euclidean_charts_only(self, cylinder):
        # the cylinder's rule carries its own measure e^{-1 - u^2} du dtheta, not
        # the Gauss-Hermite weights of e^{-u^2} du
        rule = gauss_rule(cylinder, 4)
        assert rule.nodes_per_dim == (5, 9)
        assert np.sum(rule.weights) == pytest.approx(
            2.0 * math.pi * math.sqrt(math.pi) * math.exp(-1.0), rel=1e-14)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            gauss_rule(chart_euclidean(1), -1)

    def test_overflowing_weights_name_the_degree(self):
        with np.errstate(all="raise"):
            with pytest.raises(QuadratureError, match="degree 400"):
                gauss_rule(chart_euclidean(1), 400)

    def test_table_solved_once_per_node_count(self, monkeypatch):
        calls = []
        hermgauss = np.polynomial.hermite.hermgauss
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: calls.append(n) or hermgauss(n))
        quadrature._hermite.cache_clear()
        first, second = (gauss_rule(chart_euclidean(3), 6) for _ in range(2))
        gauss_rule(chart_euclidean(1), 6)
        assert calls == [7]
        x, w = hermgauss(7)
        for a, b in ((first.dims[0].nodes, x), (first.dims[0].weights, w)):
            assert a.tobytes() == b.tobytes()
        # each rule has its own arrays; the shared table rejects writes
        assert first.dims[0].nodes is not second.dims[0].nodes
        assert first.dims[0].weights is not second.dims[0].weights
        for table in quadrature._hermite(7):
            assert not table.flags.writeable

    def test_failure_is_not_cached(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: calls.append(n) or (np.zeros(n), np.zeros(n)))
        quadrature._hermite.cache_clear()
        for _ in range(2):
            with pytest.raises(QuadratureError, match="degree 9"):
                gauss_rule(chart_euclidean(1), 9)
        assert calls == [10, 10]

    def test_underflowed_weights_name_the_degree(self, monkeypatch):
        # numpy 2.4's hermgauss returns 371 zero weights, without a warning
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss",
                            lambda n: (np.linspace(-1.0, 1.0, n), np.zeros(n)))
        with pytest.raises(QuadratureError, match="degree 370"):
            gauss_rule(chart_euclidean(1), 370)


class TestQuadRuleType:
    def test_positional_construction(self, cylinder):
        rule = build_rule(cylinder, 5, [8, 6])
        again = QuadRule(rule.dims, 5)
        assert again.nodes_per_dim == rule.nodes_per_dim == (8, 6)
        assert again.truncation_radius == 5.0 and isinstance(rule.dims, tuple)
        np.testing.assert_array_equal(again.points, rule.points)
        np.testing.assert_array_equal(again.weights, rule.weights)
        assert repr(again) == "QuadRule(dims=[unbounded,periodic], R=5, nodes=(8, 6))"

    @pytest.mark.parametrize("name", ["dims", "truncation_radius", "nodes_per_dim",
                                      "points", "weights"])
    def test_fields_are_frozen(self, euclid1_rule, name):
        with pytest.raises(AttributeError):
            setattr(euclid1_rule, name, getattr(euclid1_rule, name))

    def test_attributes_that_are_not_fields_are_refused(self, euclid1_rule):
        with pytest.raises(AttributeError):
            euclid1_rule.foo = 1

    def test_field_assignment_raises_frozen_instance_error(self, euclid1_rule):
        with pytest.raises(dataclasses.FrozenInstanceError):
            euclid1_rule.truncation_radius = 1.0


class TestIntegrate:
    def test_gaussian_mass_on_line(self, euclid1, euclid1_rule):
        val = integrate(euclid1, 1.0, euclid1_rule)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_cylinder_mass(self, cylinder, cylinder_rule):
        exact = 2.0 * math.pi * math.sqrt(math.pi) * math.exp(-1.0)
        val = integrate(cylinder, 1.0, cylinder_rule)
        assert val == pytest.approx(exact, rel=1e-8)

    def test_zero_integrand(self, cylinder, cylinder_rule):
        assert integrate(cylinder, 0.0, cylinder_rule) == 0.0

    def test_degree_ten_monomial_default_nodes(self, euclid1):
        rule = build_rule(euclid1, 8)
        val = integrate(euclid1, lambda X: X[:, 0] ** 10, rule)
        assert val == pytest.approx(math.gamma(11.0 / 2.0), rel=1e-10)

    def test_degree_ten_monomial_forty_nodes(self, euclid1):
        # 40 plain Legendre nodes on the truncated box top out near 1e-8;
        # the 1e-10 figure needs the 64-node default (see decisions ledger)
        rule = build_rule(euclid1, 8, 40)
        val = integrate(euclid1, lambda X: X[:, 0] ** 10, rule)
        assert val == pytest.approx(math.gamma(11.0 / 2.0), rel=3e-8)

    def test_non_finite_sample_names_node(self, euclid1, euclid1_rule):
        def bad(X):
            out = np.ones(X.shape[0])
            out[17] = np.nan
            return out

        with pytest.raises(QuadratureError, match="node 17"):
            integrate(euclid1, bad, euclid1_rule)

    def test_overflowing_sum_raises(self, circle, circle_rule):
        # 64 finite samples of 1e308 times weights 2 pi / 64 sum past the
        # largest double; no numpy warning escapes before the error
        with pytest.raises(QuadratureError, match="non-finite integral inf"):
            integrate(circle, lambda X: np.full(X.shape[0], 1e308), circle_rule,
                      weight="none")

    def test_complex_integrand(self, euclid1, euclid1_rule):
        val = integrate(euclid1, lambda X: np.exp(1j * X[:, 0]), euclid1_rule)
        # int e^{iu} e^{-u^2} du = sqrt(pi) e^{-1/4}
        assert val == pytest.approx(
            math.sqrt(math.pi) * math.exp(-0.25), rel=1e-10
        )

    def test_deterministic_bits(self, cylinder, cylinder_rule):
        g = lambda X: (1.0 + squared_norms(X)) ** 3
        a = integrate(cylinder, g, cylinder_rule)
        b = integrate(cylinder, g, cylinder_rule)
        assert a == b


class TestMoments:
    @pytest.mark.parametrize("m,expected", [
        (0, math.sqrt(math.pi)),  # Gamma(1/2)
        (1, 1.0),                 # substitution: int |x| e^{-x^2} dx
        (2, math.sqrt(math.pi) / 2.0),  # Gamma(3/2)
    ])
    def test_low_moments_on_line(self, euclid1, euclid1_rule, m, expected):
        assert gaussian_moment(euclid1, m, euclid1_rule) == pytest.approx(
            expected, rel=1e-10
        )

    def test_gamma_oracle_through_degree_six(self, euclid1, euclid1_rule):
        for m in range(7):
            val = gaussian_moment(euclid1, m, euclid1_rule)
            assert val == pytest.approx(math.gamma((m + 1) / 2.0), rel=1e-10)

    def test_cylinder_even_moments_against_binomial_oracle(self, cylinder,
                                                           cylinder_rule):
        # r^2 = 1 + u^2, so I_{2p} = 2 pi e^{-1} sum_k C(p,k) Gamma(k + 1/2)
        for p in range(5):
            exact = 2.0 * math.pi * math.exp(-1.0) * sum(
                math.comb(p, k) * math.gamma(k + 0.5) for k in range(p + 1)
            )
            value = gaussian_moment(cylinder, 2 * p, cylinder_rule)
            assert value == pytest.approx(exact, rel=1e-9)

    def test_modulus_graph_moments_against_polar_oracle(self, modgraph_z2,
                                                        modgraph_z2_rule):
        quad = pytest.importorskip("scipy.integrate").quad
        for m in range(4):
            def radial_integrand(rho, m=m):
                r2 = rho ** 2 + rho ** 4
                return (r2 ** (m / 2.0) * math.exp(-r2)
                        * math.sqrt(1.0 + 4.0 * rho ** 2) * rho)

            exact, err = quad(radial_integrand, 0.0, 10.0,
                              epsabs=1e-13, epsrel=1e-13, limit=400)
            exact *= 2.0 * math.pi
            value = gaussian_moment(modgraph_z2, m, modgraph_z2_rule)
            assert value == pytest.approx(exact, rel=1e-6)

    def test_graph_moments_against_quad_oracle(self, graph_x2, graph_x2_rule):
        quad = pytest.importorskip("scipy.integrate").quad
        for m in range(3):
            def integrand(x, m=m):
                r2 = x ** 2 + x ** 4
                return (r2 ** (m / 2.0) * math.exp(-r2)
                        * math.sqrt(1.0 + 4.0 * x ** 2))

            exact, err = quad(integrand, -8.0, 8.0, epsabs=1e-13, epsrel=1e-13,
                              limit=400)
            value = gaussian_moment(graph_x2, m, graph_x2_rule)
            assert value == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("fixture", [
        "euclid1", "cylinder", "graph_x2", "modgraph_z2",
    ])
    def test_finite_and_stable_under_radius_bump(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        rules = {R: build_rule(chart, R) for R in (8, 10)}
        for m in range(11):
            a = gaussian_moment(chart, m, rules[8])
            b = gaussian_moment(chart, m, rules[10])
            assert math.isfinite(a) and a > 0
            assert abs(a - b) <= 1e-7 * abs(b)

    def test_negative_order_rejected(self, euclid1, euclid1_rule):
        with pytest.raises(ValueError):
            gaussian_moment(euclid1, -1, euclid1_rule)

    @pytest.mark.parametrize("chart_name", ["euclid3", "cylinder"])
    def test_table_is_per_order_integrate_bit_for_bit(self, chart_name, cylinder):
        chart = chart_euclidean(3) if chart_name == "euclid3" else cylinder
        growth, rule = truncated_rule(chart, 12)
        table = moment_table(chart, range(13), rule, growth)
        for m, value, _ in table.rows:  # squared_norms is how the sample forms r^2
            assert value == float(integrate(chart, lambda X: squared_norms(X) ** (m / 2.0),
                                            rule))

    def test_moment_table_csv(self, euclid1, euclid1_growth, euclid1_rule, tmp_path):
        table = moment_table(euclid1, range(3), euclid1_rule, euclid1_growth)
        path = tmp_path / "moments.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,I_m,tail_bound,R,nodes"
        assert len(lines) == 4
        m0 = lines[1].split(",")
        assert m0[0] == "0"
        assert float(m0[1]) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


class TestTailBudget:
    def test_first_term_domination(self):
        # sum_{j>=10} (j+1) e^{-j^2} is below 12 e^{-100}
        bound = tail_budget(1.0, 1, 0, 10.0)
        assert bound < 1e-40
        assert bound <= 12.0 * math.exp(-100.0)

    def test_monotone_in_radius(self):
        for C, l, m in [(1.0, 1, 0), (3.0, 2, 5), (0.5, 1, 8)]:
            assert tail_budget(C, l, m, 20.0) <= tail_budget(C, l, m, 10.0)

    def test_against_brute_force_partial_sum(self):
        C, l, m, R = 1.0, 2, 2, 1.0
        brute = sum(
            C * (j + 1.0) ** (m + l) * math.exp(-float(j) ** 2)
            for j in range(1, 201)
        )
        bound = tail_budget(C, l, m, R)
        assert math.isfinite(bound)
        assert bound == pytest.approx(brute, rel=1e-15)

    def test_overflowing_term_gives_inf(self):
        # at j = 6 the term 7^401 e^{-36} is beyond the float range
        assert tail_budget(math.pi, 1, 400, 2) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_budget(-1.0, 1, 0, 5.0)
        with pytest.raises(ValueError):
            tail_budget(1.0, 1, 0, 0.5)


class TestChooseTruncation:
    def test_small_budget_example(self, euclid1_growth):
        R = choose_truncation(euclid1_growth, 0, 1e-12)
        assert 2 <= R <= 7
        # independent scan with the budget itself
        expected = next(
            r for r in range(2, 11)
            if tail_budget(euclid1_growth.C, euclid1_growth.l, 0, r) <= 1e-12
        )
        assert R == expected

    def test_monotone_in_eps(self, euclid1_growth):
        for m in (0, 4, 10):
            r1 = choose_truncation(euclid1_growth, m, 1e-10)
            r2 = choose_truncation(euclid1_growth, m, 5e-11)
            assert r2 >= r1

    def test_cylinder_self_consistency(self, cylinder, cylinder_growth):
        eps = 1e-10
        R = choose_truncation(cylinder_growth, 8, eps)
        a = gaussian_moment(cylinder, 8, build_rule(cylinder, R))
        b = gaussian_moment(cylinder, 8, build_rule(cylinder, R + 2))
        assert abs(a - b) <= 2.0 * eps

    def test_missing_growth(self):
        with pytest.raises(ValueError):
            choose_truncation(None, 4)


class TestTruncatedRule:
    @pytest.mark.parametrize("fixture,m_max,rule_fixture", [
        ("euclid1", 12, "euclid1_rule"), ("cylinder", 16, "cylinder_rule"),
        ("graph_x2", 16, "graph_x2_rule"), ("modgraph_z2", 10, "modgraph_z2_rule"),
        ("circle", 16, "circle_rule"),
    ])
    def test_is_the_conftest_pipeline(self, fixture, m_max, rule_fixture, request):
        chart, rule = request.getfixturevalue(fixture), request.getfixturevalue(rule_fixture)
        growth = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
        ref = build_rule(chart, choose_truncation(growth, m_max))
        got_growth, got = truncated_rule(chart, m_max)
        assert got_growth.l == growth.l == chart.intrinsic_dim
        assert got_growth.C == growth.C
        for r in (got, rule):
            assert r.truncation_radius == ref.truncation_radius
            assert r.nodes_per_dim == ref.nodes_per_dim
            np.testing.assert_array_equal(r.points, ref.points)
            np.testing.assert_array_equal(r.weights, ref.weights)

    @pytest.mark.parametrize("fixture", ["euclid1", "cylinder", "graph_x2",
                                         "modgraph_z2", "circle"])
    def test_passes_eps_and_nodes(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        growth = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
        rule = build_rule(chart, choose_truncation(growth, 4, 1e-6), 12)
        got_growth, got = truncated_rule(chart, 4, 1e-6, 12)
        assert got_growth.C == growth.C
        assert (got.truncation_radius, got.nodes_per_dim) == (
            rule.truncation_radius, rule.nodes_per_dim)


class TestConvergence:
    @pytest.mark.parametrize("fixture", ["euclid1", "cylinder"])
    def test_doubling_nodes_past_32(self, fixture, request):
        chart = request.getfixturevalue(fixture)

        def g(X):  # polynomial of degree 12
            return squared_norms(X) ** 6

        a = integrate(chart, g, build_rule(chart, 8, 64))
        b = integrate(chart, g, build_rule(chart, 8, 128))
        assert abs(a - b) <= 1e-9 * abs(b)


class TestIntegrability:
    @pytest.mark.parametrize("fixture", ["euclid1", "cylinder"])
    def test_boundary_at_one_half(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        for alpha in (0.1, 0.25, 0.4):
            scan = integrability_scan(chart, alpha)
            assert not scan.divergent
            assert scan.final_rel_change < 1e-6
        scan = integrability_scan(chart, 0.6)
        assert scan.divergent

    def test_needs_enough_radii(self, euclid1):
        with pytest.raises(ValueError):
            integrability_scan(euclid1, 0.25, radii=(3, 4, 5))


class TestShellDecomposition:
    def test_shell_sum_matches_direct(self, cylinder, cylinder_rule):
        for m in (0, 2, 5):
            shells, total = shell_moment_sum(cylinder, m, cylinder_rule)
            direct = gaussian_moment(cylinder, m, cylinder_rule)
            assert total == pytest.approx(direct, rel=1e-8)
            assert np.all(np.isfinite(shells))

    def test_shells_decay(self, cylinder, cylinder_rule):
        shells, _ = shell_moment_sum(cylinder, 2, cylinder_rule)
        assert shells[-1] <= 1e-10 * shells.max()


class TestDeterminism:
    def test_rules_identical_across_builds(self, euclid1):
        r1 = build_rule(euclid1, 7, 48)
        r2 = build_rule(euclid1, 7, 48)
        assert np.array_equal(r1.points, r2.points)
        assert np.array_equal(r1.weights, r2.weights)


class TestLegendreCache:
    """One Gauss-Legendre table per node count, shared by every rule."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        quadrature._legendre.cache_clear()
        yield
        quadrature._legendre.cache_clear()

    @staticmethod
    def mapped(n, lo, hi):
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w

    def test_table_is_read_only(self):
        x, w = quadrature._legendre(12)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert quadrature._legendre(12)[0] is x

    def test_rules_get_their_own_writable_arrays(self, euclid1):
        bounded = chart_graph([], domain=(-1.0, 2.0))
        for chart, n in ((euclid1, 20), (euclid1, 21), (bounded, 9)):
            first, second = (build_rule(chart, 4.0, n).dims[0] for _ in range(2))
            for name in ("nodes", "weights"):
                a, b = getattr(first, name), getattr(second, name)
                assert a.flags.writeable and b.flags.writeable
                assert not np.shares_memory(a, b)
            if chart is bounded:
                x, w = self.mapped(n, first.lo, first.hi)
            else:
                halves = [self.mapped(n // 2, first.lo, 0.0),
                          self.mapped(n - n // 2, 0.0, first.hi)]
                x, w = (np.concatenate(part) for part in zip(*halves))
            assert first.nodes.tobytes() == second.nodes.tobytes() == x.tobytes()
            assert first.weights.tobytes() == second.weights.tobytes() == w.tobytes()

    def test_one_leggauss_call_per_node_count(self, tmp_path, monkeypatch):
        from gaussvar import cli

        calls = []
        original = np.polynomial.legendre.leggauss

        def spy(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
        spec = tmp_path / "euclid3.json"
        spec.write_text('{"kind": "euclidean", "n": 3}')
        for out in ("a", "b"):
            assert cli.main(["equivalence", "--spec", str(spec),
                             "--out", str(tmp_path / out)]) == cli.EXIT_OK
        # the 64^3 and 80^3 rules split each axis at 0: halves of 32 and 40 nodes
        assert sorted(calls) == [32, 40]
        assert (tmp_path / "a" / "equivalence.csv").read_bytes() == (
            tmp_path / "b" / "equivalence.csv").read_bytes()


class TestTensorPoints:
    def test_points_are_the_meshgrid_rows(self):
        # filled in place, the points are bit for bit the stacked ij meshgrid
        dims = [DimRule("unbounded", -1.0, 1.0, *np.polynomial.legendre.leggauss(n))
                for n in (80, 64, 48)]
        rule = QuadRule(dims, 5.0)
        mesh = np.meshgrid(*[d.nodes for d in dims], indexing="ij")
        expected = np.stack([m.ravel() for m in mesh], axis=1)
        assert rule.points.shape == expected.shape and rule.points.flags.c_contiguous
        assert rule.points.tobytes() == expected.tobytes()
        weights = np.multiply.outer(np.multiply.outer(dims[0].weights, dims[1].weights),
                                    dims[2].weights).ravel()
        assert rule.weights.tobytes() == weights.tobytes()


def _pairs(n):
    """The three (f, p) pairs of the CLI's equivalence study."""
    x1 = MultiPoly.variable(n, 0)
    return [(x1 * x1, MultiPoly.zero(n)),
            (lambda X: np.exp(0.25 * squared_norms(X)), MultiPoly.constant(n, 1.0)),
            (x1 * x1, x1 * x1)]


class TestNodeBlockStreaming:
    """Every node-sized sum is streamed over blocks of ``_NODE_BLOCK`` nodes."""

    BLOCK = 1000  # splits the 4096-node cylinder rule into five blocks

    @pytest.fixture()
    def embedded(self, monkeypatch):
        """The parameter points of every ``embed`` call, under ``BLOCK``-node blocks."""
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", self.BLOCK)
        seen, original = [], VarietyChart.embed

        def spy(chart, u):
            seen.append(np.array(u, copy=True))
            return original(chart, u)

        monkeypatch.setattr(VarietyChart, "embed", spy)
        return seen

    def assert_streamed(self, seen, rules):
        # one call per block, every node once per pass, in node order
        blocks = [rule.points[a:a + self.BLOCK]
                  for rule in rules for a in range(0, rule.weights.size, self.BLOCK)]
        assert max(rule.weights.size for rule in rules) > 2 * self.BLOCK
        assert all(U.shape[0] <= self.BLOCK for U in seen)
        assert len(seen) == len(blocks)
        assert all(np.array_equal(U, P) for U, P in zip(seen, blocks))

    def test_integrate(self, cylinder, cylinder_rule, embedded):
        integrate(cylinder, lambda X: X[:, 2] ** 2, cylinder_rule)
        self.assert_streamed(embedded, [cylinder_rule])

    def test_moment_table_is_one_pass_for_all_orders(self, cylinder, cylinder_rule,
                                                     embedded):
        moment_table(cylinder, range(9), cylinder_rule)
        self.assert_streamed(embedded, [cylinder_rule])

    def test_shell_moment_sum(self, cylinder, cylinder_rule, embedded):
        shell_moment_sum(cylinder, 3, cylinder_rule)
        self.assert_streamed(embedded, [cylinder_rule])

    def test_weighted_equivalence_is_one_pass_per_side(self, cylinder, cylinder_rule,
                                                       embedded):
        rule_rhs = build_rule(cylinder, cylinder_rule.truncation_radius,
                              [n + 16 for n in cylinder_rule.nodes_per_dim])
        weighted_equivalence_check(cylinder, _pairs(3), cylinder_rule, rule_rhs)
        self.assert_streamed(embedded, [cylinder_rule, rule_rhs])

    def test_integrability_scan_is_one_pass_per_radius(self, cylinder, embedded):
        integrability_scan(cylinder, 0.25, radii=(3, 4, 5, 6))
        self.assert_streamed(embedded, [build_rule(cylinder, R) for R in (3, 4, 5, 6)])

    @pytest.mark.parametrize("run", [
        lambda chart, rule: integrate(chart, lambda X: X[:, 2] ** 2, rule),
        lambda chart, rule: np.array([row[1] for row in
                                      moment_table(chart, range(9), rule).rows]),
        lambda chart, rule: shell_moment_sum(chart, 3, rule)[1],
        lambda chart, rule: np.array(weighted_equivalence_check(chart, _pairs(3), rule)),
    ], ids=["integrate", "moment_table", "shell_moment_sum", "equivalence"])
    def test_blocks_sum_to_the_one_block_value(self, run, cylinder, cylinder_rule,
                                               monkeypatch):
        whole = run(cylinder, cylinder_rule)
        monkeypatch.setattr(quadrature, "_NODE_BLOCK", self.BLOCK)
        np.testing.assert_allclose(run(cylinder, cylinder_rule), whole, rtol=1e-14)

    def test_empty_rule_is_one_empty_block(self):
        chart = chart_euclidean(2)
        rule = QuadRule((), math.inf, np.empty((0, 2)), np.empty(0), ("unbounded",) * 2)
        assert [block.X.shape for block in quadrature.node_blocks(chart, rule)] == [(0, 2)]
        assert integrate(chart, 1.0, rule) == 0.0

    @pytest.mark.parametrize("where", ["integrand sample", "|x|^2"])
    def test_non_finite_node_is_named_by_its_index_in_the_rule(self, where, cylinder):
        # node _NODE_BLOCK + 5 lies in the second block of the default size
        rule = build_rule(cylinder, 6, (128, 100))
        i = quadrature._NODE_BLOCK + 5
        bad = discretize(cylinder, rule).X[i]

        def poisoned(X):
            return np.where(np.all(X == bad, axis=1)[:, None], np.nan, X)

        if where == "|x|^2":
            chart, g = dataclasses.replace(cylinder, _embed=lambda U: poisoned(
                cylinder._embed(U))), 1.0
        else:
            chart, g = cylinder, lambda X: poisoned(X)[:, 0]
        message = f"non-finite {where} at node {i}, parameters {rule.points[i].tolist()}"
        with pytest.raises(QuadratureError, match=re.escape(message)):
            integrate(chart, g, rule)


class TestStreamingMemory:
    """The sums hold one node block at a time, not a whole rule's sample."""

    LIMIT = 2e6  # bytes; a whole 64^3 sample is 16 MB, the 64^3/80^3 pair 39 MB

    @staticmethod
    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def euclid3_rules(self):
        chart = chart_euclidean(3)
        growth, rule = truncated_rule(chart, 4)
        rule_rhs = build_rule(chart, rule.truncation_radius,
                              [n + 16 for n in rule.nodes_per_dim])
        assert rule.nodes_per_dim == (64,) * 3 and rule_rhs.nodes_per_dim == (80,) * 3
        return chart, growth, rule, rule_rhs

    def test_weighted_equivalence_check(self, euclid3_rules):
        chart, _, rule, rule_rhs = euclid3_rules
        pairs = _pairs(3)
        assert self.peak(lambda: weighted_equivalence_check(chart, pairs, rule,
                                                            rule_rhs)) < self.LIMIT

    def test_moment_table(self, euclid3_rules):
        chart, growth, rule, _ = euclid3_rules
        assert self.peak(lambda: moment_table(chart, range(7), rule, growth)) < self.LIMIT
