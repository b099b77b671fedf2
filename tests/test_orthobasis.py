import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussvar import orthobasis
from gaussvar.orthobasis import (
    GramBasis,
    basis_inner_products,
    basis_to_csv,
    classic_recovery,
    gram_matrix,
    gram_to_csv,
    orthonormalize,
    project,
    projections_to_csv,
    weighted_equivalence_check,
)
from gaussvar.polyring import (
    MultiPoly, monomial_values, monomials_up_to_degree, parse_poly, squared_norms,
)
from gaussvar.quadrature import (
    QuadratureError, build_rule, discretize, integrate, moment_table,
)
from gaussvar.variety import chart_graph

# the five conftest charts with their rules
CHARTS = [
    ("euclid1", "euclid1_rule"),
    ("cylinder", "cylinder_rule"),
    ("graph_x2", "graph_x2_rule"),
    ("modgraph_z2", "modgraph_z2_rule"),
    ("circle", "circle_rule"),
]


def reference_elimination(G, rank_tol=1e-9):
    """Vector-by-vector threshold elimination: kept indices and rows."""
    N = G.shape[0]
    kept, rows, grams = [], [], []
    for i in range(N):
        v = np.zeros(N)
        v[i] = 1.0
        for _ in range(2):
            for c, w in zip(rows, grams):
                v = v - (w @ v) * c
        res2 = float(v @ G @ v)
        if G[i, i] <= 0 or res2 <= rank_tol * G[i, i]:
            continue
        c = v / math.sqrt(res2)
        kept.append(i)
        rows.append(c)
        grams.append(G @ c)
    return tuple(kept), np.array(rows).reshape(len(kept), N)


def reference_gram(chart, degree_cap, rule, weight="gauss"):
    """Whole-array Gram matrix: the monomial values at every node at once."""
    monomials = monomials_up_to_degree(chart.ambient_dim, degree_cap)
    disc = discretize(chart, rule)
    E = monomial_values(monomials, disc.X)
    E *= np.sqrt(disc.weights(weight))
    return E @ E.T


def reference_project(gb, f, rule):
    """Whole-array projection: (coefficients, residual norm) per degree."""
    disc = discretize(gb.chart, rule)
    W = disc.weights(gb.weight)
    B = gb.ortho_coeffs @ monomial_values(gb.monomials, disc.X)
    fvals = np.asarray(f(disc.X), dtype=float)
    coeffs = B @ (W * fvals)
    kept_degrees = [gb.monomials[i].degree for i in gb.kept_indices]
    ends = np.searchsorted(kept_degrees, np.arange(gb.degree_cap + 1), side="right")
    diff, out = fvals, []
    for start, end in zip([0, *ends], ends):
        diff = diff - coeffs[start:end] @ B[start:end]
        out.append((coeffs[:end], math.sqrt(float(np.sum(W * diff * diff)))))
    return out


def reference_gram_csv(gb, path):
    """Cell-by-cell Gram writer: one f-string and one write per entry."""
    with open(path, "w", newline="") as fh:
        fh.write("i,j,value\n")
        N = len(gb.monomials)
        for i in range(N):
            for j in range(N):
                fh.write(f"{i},{j},{gb.gram[i, j]:.17g}\n")


def reference_basis_csv(gb, path):
    """Cell-by-cell basis writer: one row per coefficient with coeff != 0."""
    with open(path, "w", newline="") as fh:
        fh.write("basis_index,monomial_exponents,coefficient\n")
        for k, row in enumerate(gb.ortho_coeffs):
            for mono, coeff in zip(gb.monomials, row):
                if coeff != 0:
                    exps = " ".join(str(e) for e in mono.exponents)
                    fh.write(f"{k},{exps},{coeff:.17g}\n")


def assert_moment_matrix(gb, raw=None):
    """Every exponent-sum class holds one bit pattern, and G == G.T bit for bit.

    With ``raw``, the unmerged sums, each class must hold the sum of its
    first pair in row-major order.
    """
    A = np.array([m.exponents for m in gb.monomials])
    sums = (A[:, None, :] + A[None, :, :]).reshape(-1, A.shape[1])
    _, first, cls = np.unique(sums, axis=0, return_index=True, return_inverse=True)
    cls = cls.ravel()
    bits = gb.gram.view(np.int64)
    pairs = np.column_stack([cls, bits.ravel()])
    assert len(np.unique(pairs, axis=0)) == len(first)
    assert np.array_equal(bits, bits.T)
    if raw is not None:
        assert np.array_equal(gb.gram.ravel(), raw.ravel()[first[cls]])


def assert_writers_match_reference(gb, tmp_path):
    for writer, reference in ((gram_to_csv, reference_gram_csv),
                              (basis_to_csv, reference_basis_csv)):
        writer(gb, tmp_path / "new.csv")
        reference(gb, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]


def assert_gram_csv_exact(gram, tmp_path):
    """gram.csv equals the cell-by-cell writer's bytes and reads back bit for bit."""
    N = gram.shape[0]
    gb = GramBasis(chart=None, degree_cap=N - 1,
                   monomials=tuple(monomials_up_to_degree(1, N - 1)),
                   gram=gram, weight="gauss")
    gram_to_csv(gb, tmp_path / "new.csv")
    reference_gram_csv(gb, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = np.loadtxt(tmp_path / "new.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back[:, 0], np.repeat(np.arange(N), N))
    assert np.array_equal(back[:, 1], np.tile(np.arange(N), N))
    assert back[:, 2].view(np.int64).tolist() == gram.ravel().view(np.int64).tolist()


class TestGramMatrix:
    def test_euclidean_degree_one(self, euclid1, euclid1_rule):
        gb = gram_matrix(euclid1, 1, euclid1_rule)
        expected = np.array([
            [math.sqrt(math.pi), 0.0],
            [0.0, math.sqrt(math.pi) / 2.0],
        ])
        assert np.allclose(gb.gram, expected, rtol=1e-10, atol=1e-14)

    def test_degree_zero_is_total_mass(self, cylinder, cylinder_rule):
        gb = gram_matrix(cylinder, 0, cylinder_rule)
        exact = 2.0 * math.pi * math.sqrt(math.pi) * math.exp(-1.0)
        assert gb.gram.shape == (1, 1)
        assert gb.gram[0, 0] == pytest.approx(exact, rel=1e-8)

    def test_circle_rank_five_of_six(self, circle, circle_rule):
        gb = orthonormalize(gram_matrix(circle, 2, circle_rule))
        assert len(gb.monomials) == 6
        assert gb.rank == 5
        dropped = [i for i in range(6) if i not in gb.kept_indices]
        assert [gb.monomials[i].exponents for i in dropped] == [(0, 2)]

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_symmetric_and_psd(self, fixture, rule_fixture, request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        gb = gram_matrix(chart, 4, rule)
        G = gb.gram
        assert np.array_equal(G, G.T)
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_euclidean_full_rank(self, euclid1, euclid1_rule):
        gb = orthonormalize(gram_matrix(euclid1, 5, euclid1_rule))
        assert gb.rank == len(gb.monomials)


@pytest.fixture(scope="module")
def chart_rules(request):
    return {chart: (request.getfixturevalue(chart), request.getfixturevalue(rule))
            for chart, rule in CHARTS}


class TestMomentMatrix:
    """G holds one double per exponent sum: the moment integral x^(a+b)."""

    def test_non_finite_sums_checked_before_canonicalizing(self, circle, circle_rule,
                                                           monkeypatch):
        # x1 and x2 at 1e160 on one node: x1^2, x1 x2 and x2^2 overflow as
        # products of those rows, while their class representatives (1, x1^2),
        # (1, x1 x2) and (1, x2^2) stay finite
        def spiked(monomials, points):
            E = monomial_values(monomials, points)
            E[1:3, 0] = 1e160
            return E

        monkeypatch.setattr(orthobasis, "monomial_values", spiked)
        # no numpy overflow warning escapes before the error
        with pytest.raises(QuadratureError, match="non-finite Gram entry"):
            gram_matrix(circle, 2, circle_rule)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from([chart for chart, _ in CHARTS]),
           D=st.integers(0, 8), weight=st.sampled_from(["gauss", "none"]),
           block=st.sampled_from([27, 1000]))
    def test_moment_matrix_matches_raw_sums(self, chart_rules, case, D, weight, block):
        chart, rule = chart_rules[case]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orthobasis, "_NODE_BLOCK", block)
            gb = gram_matrix(chart, D, rule, weight=weight)
        ref = reference_gram(chart, D, rule, weight=weight)
        # a rule of one block sums exactly as the whole-array reference does
        assert_moment_matrix(gb, ref if rule.points.shape[0] <= block else None)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(gb.gram - ref) <= 1e-13 * scale)
        assert orthonormalize(gb).kept_indices == reference_elimination(ref)[0]

    @pytest.mark.parametrize("D", [0, 1, 2])
    def test_many_coordinates(self, D):
        # ambient dimension 13: for D >= 1 the sum codes outgrow N^2 and are
        # renumbered densely on the way
        comps = [parse_poly(f"{c}*x1^2", 1) for c in np.linspace(0.1, 1.2, 12)]
        chart = chart_graph(comps, domain=(-1.0, 1.0))
        rule = build_rule(chart, 2)
        gb = gram_matrix(chart, D, rule)
        ref = reference_gram(chart, D, rule)
        assert_moment_matrix(gb, ref)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(gb.gram - ref) <= 1e-13 * scale)


class TestRuleCheck:
    # a cylinder rule (gauss x periodic) does not fit the modulus graph
    # (unbounded x unbounded); every caller must say so
    @pytest.mark.parametrize("call", [
        lambda gb, rule: gram_matrix(gb.chart, 2, rule),
        lambda gb, rule: project(gb, lambda X: np.ones(X.shape[0]), rule),
        lambda gb, rule: basis_inner_products(gb, rule),
    ], ids=["gram_matrix", "project", "basis_inner_products"])
    def test_foreign_rule_rejected(self, call, modgraph_z2, modgraph_z2_rule,
                                   cylinder_rule):
        gb = orthonormalize(gram_matrix(modgraph_z2, 2, modgraph_z2_rule))
        with pytest.raises(QuadratureError):
            call(gb, cylinder_rule)


class TestOrthonormalize:
    def test_hermite_coefficient_ratios(self, euclid1, euclid1_rule):
        gb = orthonormalize(gram_matrix(euclid1, 3, euclid1_rule))
        assert gb.rank == 4
        C = gb.ortho_coeffs
        # monic from the classical family: 1, x, x^2 - 1/2, x^3 - 3x/2
        assert C[2, 0] / C[2, 2] == pytest.approx(-0.5, rel=1e-7)
        assert abs(C[2, 1] / C[2, 2]) <= 1e-7
        assert C[3, 1] / C[3, 3] == pytest.approx(-1.5, rel=1e-7)
        assert abs(C[3, 0] / C[3, 3]) <= 1e-7

    def test_degree_zero_element_is_inverse_root_mass(self, cylinder, cylinder_rule):
        gb = orthonormalize(gram_matrix(cylinder, 0, cylinder_rule))
        mass = 2.0 * math.pi * math.sqrt(math.pi) * math.exp(-1.0)
        assert gb.ortho_coeffs[0, 0] == pytest.approx(mass ** -0.5, rel=1e-8)

    def test_rank_stable_across_tolerance_window(self, circle, circle_rule):
        gb0 = gram_matrix(circle, 2, circle_rule)
        kept_sets = {
            orthonormalize(gb0, rank_tol=tol).kept_indices
            for tol in (1e-10, 1e-9, 1e-8)
        }
        assert len(kept_sets) == 1

    def test_orthonormality_against_finer_rule(self, cylinder, cylinder_rule):
        gb = orthonormalize(gram_matrix(cylinder, 4, cylinder_rule))
        finer = build_rule(cylinder, cylinder_rule.truncation_radius, 96)
        M = basis_inner_products(gb, finer)
        assert np.max(np.abs(M - np.eye(gb.rank))) <= 1e-7

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_matches_reference_elimination(self, fixture, rule_fixture, request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        for D in range(7):
            gb0 = gram_matrix(chart, D, rule)
            G_before = gb0.gram.copy()
            gb = orthonormalize(gb0)
            kept, C_ref = reference_elimination(G_before)
            assert gb.kept_indices == kept
            C = gb.ortho_coeffs
            assert C.shape == (gb.rank, len(gb.monomials))
            assert C.flags.owndata
            assert np.max(np.abs(C - C_ref)) <= 1e-9 * np.max(np.abs(C_ref))
            assert np.array_equal(gb0.gram, G_before)
            assert gb.gram is gb0.gram

    def test_second_pass_keeps_basis_orthonormal(self, modgraph_z2,
                                                  modgraph_z2_rule):
        # cond(G) ~ 1e21 here: a single pass leaves a defect of about 3e-7
        gb = orthonormalize(gram_matrix(modgraph_z2, 8, modgraph_z2_rule))
        C = gb.ortho_coeffs
        assert np.max(np.abs(C @ gb.gram @ C.T - np.eye(gb.rank))) <= 5e-8

    @pytest.mark.parametrize("D", range(13))
    def test_circle_rank_oracle(self, D, circle, circle_rule):
        # the trigonometric polynomials of degree <= D on the circle
        gb = orthonormalize(gram_matrix(circle, D, circle_rule))
        assert gb.rank == 2 * D + 1

    @pytest.mark.parametrize("D", [4, 8, 12])
    def test_cylinder_rank_oracle(self, D, cylinder, cylinder_rule):
        # x^2 + y^2 = 1: z^c times the 2(D - c) + 1 circle harmonics, c <= D
        gb = orthonormalize(gram_matrix(cylinder, D, cylinder_rule))
        assert gb.rank == (D + 1) ** 2

    def test_invalid_tolerance(self, euclid1, euclid1_rule):
        gb = gram_matrix(euclid1, 2, euclid1_rule)
        with pytest.raises(ValueError):
            orthonormalize(gb, rank_tol=0.0)

    def test_zero_measure_chart_yields_empty_basis(self):
        # constant profile and height: the revolution map degenerates and
        # every Gram entry vanishes, so nothing survives rank filtering
        from gaussvar.variety import chart_revolution
        from gaussvar.polyring import parse_poly

        flat = chart_revolution(parse_poly("1", 1), parse_poly("2", 1),
                                u1_domain=(-1.0, 1.0))
        rule = build_rule(flat, 2)
        gb = orthonormalize(gram_matrix(flat, 1, rule))
        assert gb.rank == 0
        assert gb.ortho_coeffs.shape == (0, len(gb.monomials))


class TestProjection:
    def test_basis_element_projects_to_itself(self, cylinder, cylinder_rule):
        gb = orthonormalize(gram_matrix(cylinder, 2, cylinder_rule))
        b0_poly = gb.basis_polynomials()[0]

        def b0(X):
            return np.real(b0_poly.eval(X))

        rep = project(gb, b0, cylinder_rule)[-1]
        expected = np.zeros(gb.rank)
        expected[0] = 1.0
        assert np.allclose(rep.coefficients, expected, atol=1e-8)
        assert rep.residual_norm <= 1e-8

    def test_polynomial_in_subspace_has_no_residual(self, euclid1, euclid1_rule):
        gb = orthonormalize(gram_matrix(euclid1, 4, euclid1_rule))
        rep = project(gb, lambda X: X[:, 0] ** 4, euclid1_rule)[-1]
        assert rep.residual_norm <= 1e-8

    def test_cylinder_density_witness(self, cylinder, cylinder_rule):
        f = lambda X: np.exp(0.25 * squared_norms(X))
        gb = orthonormalize(gram_matrix(cylinder, 8, cylinder_rule))
        rels = [rep.rel_residual for rep in project(gb, f, cylinder_rule)[2::2]]
        assert all(b < a for a, b in zip(rels, rels[1:]))
        assert rels[-1] < 0.1

    def test_graph_density_witness(self, graph_x2, graph_x2_rule):
        f = lambda X: np.exp(0.25 * squared_norms(X))
        gb = orthonormalize(gram_matrix(graph_x2, 8, graph_x2_rule))
        rels = [rep.rel_residual for rep in project(gb, f, graph_x2_rule)[2::2]]
        assert all(b < a for a, b in zip(rels, rels[1:]))

    def test_nested_residual_monotonicity(self, euclid1, euclid1_rule):
        f = lambda X: np.exp(0.25 * squared_norms(X))
        gb = orthonormalize(gram_matrix(euclid1, 6, euclid1_rule))
        res = [rep.residual_norm for rep in project(gb, f, euclid1_rule)[::2]]
        assert all(b <= a + 1e-9 for a, b in zip(res, res[1:]))

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_sweep_matches_separate_bases(self, fixture, rule_fixture, request):
        # report D of one degree-6 basis is the projection onto the basis a
        # degree-D Gram matrix gives on its own (the prefix property)
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)

        def f(X):
            return np.exp(0.25 * squared_norms(X) + 0.5 * np.sin(X[:, 0]))

        gb = orthonormalize(gram_matrix(chart, 6, rule))
        sweep = project(gb, f, rule)
        assert [rep.degree_cap for rep in sweep] == list(range(7))
        for D, rep in enumerate(sweep):
            gb_D = orthonormalize(gram_matrix(chart, D, rule))
            alone = project(gb_D, f, rule)[-1]
            assert gb.kept_indices[:gb_D.rank] == gb_D.kept_indices
            assert rep.coefficients.shape == (gb_D.rank,)
            assert np.allclose(rep.coefficients, alone.coefficients, rtol=0, atol=1e-10)
            assert rep.f_norm == alone.f_norm
            assert abs(rep.residual_norm - alone.residual_norm) <= 1e-12 * rep.f_norm

    def test_bessel_inequality(self, cylinder, cylinder_rule):
        gb = orthonormalize(gram_matrix(cylinder, 4, cylinder_rule))
        targets = [
            lambda X: np.exp(0.25 * squared_norms(X)),
            lambda X: X[:, 2] ** 3,
            lambda X: X[:, 0] * X[:, 2],  # cos(u2) u1
        ]
        for f in targets:
            rep = project(gb, f, cylinder_rule)[-1]
            fsq = float(integrate(cylinder, lambda X: np.asarray(f(X)) ** 2,
                                  cylinder_rule))
            assert np.sum(rep.coefficients ** 2) <= fsq + 1e-9

    def test_projection_requires_basis(self, euclid1, euclid1_rule):
        gb = gram_matrix(euclid1, 2, euclid1_rule)
        with pytest.raises(ValueError):
            project(gb, lambda X: X[:, 0], euclid1_rule)


class TestAmbientIntegrands:
    """Every integrand is a function of x, called on the rule's one embedded sample."""

    class Recorder:
        def __init__(self):
            self.seen = []

        def __call__(self, X):
            self.seen.append(np.array(X, copy=True))
            return np.ones(X.shape[0])

    @staticmethod
    def assert_bit_equal(seen, chart, rules):
        expected = [discretize(chart, rule).X for rule in rules]
        assert len(seen) == len(expected)
        for got, X in zip(seen, expected):
            assert got.shape == X.shape and got.dtype == X.dtype
            assert got.tobytes() == X.tobytes()

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_called_on_embedded_nodes(self, fixture, rule_fixture, request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        rule_rhs = build_rule(chart, rule.truncation_radius,
                              [n + 16 for n in rule.nodes_per_dim])
        gb = orthonormalize(gram_matrix(chart, 2, rule))
        for call, rules in (
            (lambda f: integrate(chart, f, rule), [rule]),
            (lambda f: project(gb, f, rule), [rule]),
            (lambda f: weighted_equivalence_check(
                chart, MultiPoly.zero(chart.ambient_dim), f, rule, rule_rhs),
             [rule, rule_rhs]),
        ):
            f = self.Recorder()
            call(f)
            self.assert_bit_equal(f.seen, chart, rules)

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_squared_norm_integral_is_second_moment(self, fixture, rule_fixture,
                                                    request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        I2 = moment_table(chart, [2], rule).rows[0][1]
        assert float(integrate(chart, squared_norms, rule)) == I2

    def test_non_finite_residual_raises(self, circle, circle_rule):
        # f = 1 has a finite norm, but coefficients scaled by 1e200 make the
        # residual overflow; no numpy warning escapes before the error
        gb = orthonormalize(gram_matrix(circle, 2, circle_rule))
        huge = dataclasses.replace(gb, ortho_coeffs=1e200 * gb.ortho_coeffs)
        with pytest.raises(QuadratureError, match="non-finite squared residual"):
            project(huge, lambda X: np.ones(X.shape[0]), circle_rule)


class TestNodeBlocks:
    """Node-blocked sums against the whole-array references.

    27 nodes split every conftest rule into several blocks and a partial
    last one; 1000 leave the 64-node rules in one block and split the
    4096-node ones into four full blocks and a partial one.
    """

    @pytest.fixture(params=[27, 1000], ids=lambda b: f"block{b}")
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(orthobasis, "_NODE_BLOCK", request.param)

    @staticmethod
    def target(chart):
        return lambda X: np.exp(0.25 * squared_norms(X) + 0.5 * np.sin(X[:, 0]))

    @pytest.mark.parametrize("weight", ["gauss", "none"])
    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_gram_matches_reference(self, fixture, rule_fixture, weight,
                                    small_blocks, request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        G = gram_matrix(chart, 6, rule, weight=weight).gram
        ref = reference_gram(chart, 6, rule, weight=weight)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.array_equal(G, G.T)
        assert np.all(np.abs(G - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_project_matches_reference(self, fixture, rule_fixture, small_blocks,
                                       request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        gb = orthonormalize(gram_matrix(chart, 6, rule))
        f = self.target(chart)
        reports = project(gb, f, rule)
        assert len(reports) == 7
        for rep, (coeffs, residual) in zip(reports, reference_project(gb, f, rule)):
            assert np.all(np.abs(rep.coefficients - coeffs) <= 1e-12)
            assert abs(rep.residual_norm - residual) <= 1e-12 * rep.f_norm

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_inner_products_match_reference(self, fixture, rule_fixture,
                                            small_blocks, request):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        gb = orthonormalize(gram_matrix(chart, 6, rule))
        disc = discretize(chart, rule)
        B = gb.ortho_coeffs @ monomial_values(gb.monomials, disc.X)
        B *= np.sqrt(disc.weights())
        M = basis_inner_products(gb, rule)
        assert np.array_equal(M, M.T)
        assert np.all(np.abs(M - B @ B.T) <= 1e-12)

    def test_monomial_values_sees_one_block_at_a_time(self, cylinder, cylinder_rule,
                                                      monkeypatch):
        # 128 x 100 nodes: one full block of the default size and a partial one,
        # then three blocks of at most 5000 nodes, then a single block
        rule = build_rule(cylinder, cylinder_rule.truncation_radius, (128, 100))
        X = discretize(cylinder, rule).X
        assert orthobasis._NODE_BLOCK < X.shape[0] < 2 * orthobasis._NODE_BLOCK
        calls = []

        def spy(monomials, points):
            calls.append(points.copy())
            return monomial_values(monomials, points)

        monkeypatch.setattr(orthobasis, "monomial_values", spy)
        for size in (orthobasis._NODE_BLOCK, 5000, 2 * X.shape[0]):
            monkeypatch.setattr(orthobasis, "_NODE_BLOCK", size)
            blocks = [X[a:a + size] for a in range(0, X.shape[0], size)]
            calls[:] = []
            gb = orthonormalize(gram_matrix(cylinder, 4, rule))
            gram_calls, calls[:] = calls[:], []
            project(gb, self.target(cylinder), rule)
            project_calls, calls[:] = calls[:], []
            basis_inner_products(gb, rule)
            # every node once, in node order; project's second pass then visits
            # every block but the last, whose values it kept, in reverse
            for seen, expected in ((gram_calls, blocks), (calls, blocks),
                                   (project_calls, blocks + blocks[-2::-1])):
                assert max(p.shape[0] for p in seen) <= size
                assert len(seen) == len(expected)
                assert all(np.array_equal(p, q) for p, q in zip(seen, expected))
        assert len(project_calls) == 1  # a one-block rule evaluates once


class TestWeightedEquivalence:
    def test_identical_integrands_vanish(self, euclid1, euclid1_rule):
        x1sq = MultiPoly.variable(1, 0) ** 2
        lhs, rhs = weighted_equivalence_check(
            euclid1, x1sq, lambda X: X[:, 0] ** 2, euclid1_rule
        )
        assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_analytic_value_on_line(self, euclid1, euclid1_rule):
        rule_rhs = build_rule(euclid1, euclid1_rule.truncation_radius, 80)
        lhs, rhs = weighted_equivalence_check(
            euclid1, MultiPoly.zero(1), lambda X: X[:, 0] ** 2,
            euclid1_rule, rule_rhs,
        )
        exact = 3.0 * math.sqrt(math.pi) / 4.0  # Gamma(5/2)
        assert lhs == pytest.approx(exact, rel=1e-8)
        assert rhs == pytest.approx(exact, rel=1e-8)

    def test_cylinder_pair_agrees(self, cylinder, cylinder_rule):
        rule_rhs = build_rule(cylinder, cylinder_rule.truncation_radius, 80)
        f = lambda X: np.exp(0.25 * squared_norms(X))
        lhs, rhs = weighted_equivalence_check(
            cylinder, MultiPoly.constant(3, 1.0), f, cylinder_rule, rule_rhs
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestClassicRecovery:
    def test_hermite(self):
        report = classic_recovery("hermite")
        assert report.matched
        assert report.max_rel_coeff_err <= 1e-6
        # degree-2 element proportional to x^2 - 1/2
        row = report.computed[2]
        assert row[0] / row[2] == pytest.approx(-0.5, rel=1e-7)

    def test_legendre(self):
        report = classic_recovery("legendre")
        assert report.matched
        row = report.computed[2]
        # degree-2 element proportional to x^2 - 1/3
        assert row[0] / row[2] == pytest.approx(-1.0 / 3.0, rel=1e-7)

    def test_degree_zero_normalization(self):
        report = classic_recovery("legendre")
        # mass of [-1, 1] is 2, so the constant element is 1/sqrt(2)
        assert report.computed[0, 0] == pytest.approx(2.0 ** -0.5, rel=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classic_recovery("chebyshev")


class TestExports:
    def test_basis_csv(self, euclid1, euclid1_rule, tmp_path):
        gb = orthonormalize(gram_matrix(euclid1, 2, euclid1_rule))
        path = tmp_path / "basis.csv"
        basis_to_csv(gb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "basis_index,monomial_exponents,coefficient"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == pytest.approx(math.pi ** -0.25, rel=1e-10)

    def test_gram_csv(self, euclid1, euclid1_rule, tmp_path):
        gb = gram_matrix(euclid1, 1, euclid1_rule)
        path = tmp_path / "gram.csv"
        gram_to_csv(gb, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 5

    def test_projection_csv(self, euclid1, euclid1_rule, tmp_path):
        gb = orthonormalize(gram_matrix(euclid1, 2, euclid1_rule))
        rep = project(gb, lambda X: X[:, 0] ** 2, euclid1_rule)[-1]
        path = tmp_path / "projection.csv"
        projections_to_csv([rep], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "D,residual_norm,f_norm,rel_residual"
        assert lines[1].startswith("2,")

    @pytest.mark.parametrize("fixture,rule_fixture", CHARTS)
    def test_writers_match_reference(self, fixture, rule_fixture, request, tmp_path):
        chart = request.getfixturevalue(fixture)
        rule = request.getfixturevalue(rule_fixture)
        for D in range(7):
            assert_writers_match_reference(
                orthonormalize(gram_matrix(chart, D, rule)), tmp_path)

    def test_writers_match_reference_on_edge_values(self, cylinder, tmp_path):
        gram = np.array([
            [-0.0, 5e-324, 1.0, -1e300],
            [0.1, 1.0 / 3.0, -2.5e-8, 123456789.0],
            [1e-300, -0.0, 0.1, 1e16],
            [-1e300, 0.1, 5e-324, 1.0],
        ])
        coeffs = np.array([
            [0.1, 0.0, -0.0, 1.0],        # interior zeros and a -0.0
            [0.0, -1e300, 0.0, 5e-324],
            [-0.0, 0.0, 0.0, 0.0],        # no nonzero coefficient: no row
        ])
        gb = GramBasis(
            chart=cylinder, degree_cap=1,
            monomials=tuple(monomials_up_to_degree(3, 1)), gram=gram,
            weight="gauss", rank=3, kept_indices=(0, 1, 2),
            ortho_coeffs=coeffs,
        )
        assert_writers_match_reference(gb, tmp_path)
        assert_gram_csv_exact(gb.gram, tmp_path)
        basis_to_csv(gb, tmp_path / "basis.csv")
        assert (tmp_path / "basis.csv").read_text().splitlines()[1:] == [
            "0,0 0 0,0.10000000000000001", "0,0 0 1,1",
            "1,1 0 0,-1.0000000000000001e+300", "1,0 0 1,4.9406564584124654e-324",
        ]

    @pytest.mark.parametrize("gram", [
        np.array([[0.0]]),
        np.array([[-0.0]]),
        np.array([[1e308]]),
        np.array([[0.0, -0.0], [-0.0, 0.0]]),
        np.array([[5e-324, -1e308], [-1e308, 2.2250738585072009e-308]]),
    ], ids=["one-zero", "one-negative-zero", "one-huge", "both-zeros", "extremes"])
    def test_gram_csv_edge_matrices(self, gram, tmp_path):
        assert_gram_csv_exact(gram, tmp_path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_gram_csv_repeated_values(self, tmp_path, data):
        # a few distinct values, each in many cells, as in a moment matrix
        N = data.draw(st.integers(1, 12))
        pool = data.draw(st.lists(
            st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6))
        cells = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=N * N, max_size=N * N))
        assert_gram_csv_exact(np.array(pool)[cells].reshape(N, N), tmp_path)

