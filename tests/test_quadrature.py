import math

import numpy as np
import pytest

from gaussvar.quadrature import (
    QuadratureError,
    build_rule,
    choose_truncation,
    gaussian_moment,
    integrability_scan,
    integrate,
    moment_table,
    shell_moment_sum,
    tail_budget,
)
from gaussvar.polyring import squared_norms
from gaussvar.variety import chart_graph


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

    def test_mismatched_node_tuple(self, cylinder):
        with pytest.raises(QuadratureError):
            build_rule(cylinder, 5, (16,))

    def test_rule_chart_mismatch(self, euclid1, cylinder_rule):
        with pytest.raises(QuadratureError):
            integrate(euclid1, 1.0, cylinder_rule)


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
