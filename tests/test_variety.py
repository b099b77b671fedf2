import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussvar import variety
from gaussvar.cli import _GROWTH_RADII
from gaussvar.polyring import MultiPoly, parse_poly, variables
from gaussvar.quadrature import _FIT_RADII
from gaussvar.variety import (
    ChartError,
    GrowthError,
    ParamDomain,
    SpecFileError,
    VarietyChart,
    chart_euclidean,
    chart_graph,
    chart_modulus_graph,
    chart_revolution,
    estimate_growth,
    load_chart,
    param_interval,
    solve_param_bound,
)


def fd_density(chart, u, step=1e-5):
    """Independent volume density: sqrt(det(J^T J)) by central differences."""
    u = np.asarray(u, dtype=float)
    d = u.size
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        cols.append((chart.embed(u + e) - chart.embed(u - e)) / (2.0 * step))
    J = np.stack(cols, axis=1)
    return math.sqrt(np.linalg.det(J.T @ J))


def reference_measure_volumes(chart, radii):
    """Whole-grid volumes: every grid node at once, one mask and sum per radius."""
    r_max = float(radii[-1])
    if chart.kind in ("revolution", "circle"):
        nodes, h = variety._growth_axis(chart, 0, r_max, variety._GROWTH_GRID[1])
        U = np.zeros((nodes.size, chart.intrinsic_dim))
        U[:, 0] = nodes
        cell, angular = h, 2.0 * math.pi if chart.kind == "revolution" else 1.0
    else:
        npts = variety._GROWTH_GRID.get(chart.intrinsic_dim, 65)
        axes = [variety._growth_axis(chart, dim, r_max, npts)
                for dim in range(chart.intrinsic_dim)]
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        U = np.stack([m.ravel() for m in mesh], axis=1)
        cell, angular = math.prod(a[1] for a in axes), 1.0
    dens = chart.volume_density(U)
    r2 = chart.radial_sq(U)
    wd = dens * cell * angular
    return np.array([np.sum(wd[r2 <= r * r]) for r in radii])


def identity_chart(n):
    """R^n as a chart whose kind is not "euclidean", so growth samples its grid."""
    return VarietyChart("identity", n, (ParamDomain("unbounded"),) * n,
                        lambda U: U.copy(), lambda U: np.ones(U.shape[0]), f"identity({n})")


@pytest.fixture(scope="module")
def identity1():
    return identity_chart(1)


def counted_volumes(chart, radii):
    """Euclidean grid volumes as count_nonzero(r^2 <= r * r) * cell, with every
    node through radial_sq, one first-axis node of the grid at a time."""
    npts = variety._GROWTH_GRID.get(chart.intrinsic_dim, 65)
    axes = [variety._growth_axis(chart, dim, float(radii[-1]), npts)
            for dim in range(chart.intrinsic_dim)]
    mesh = np.meshgrid(np.zeros(1), *[a[0] for a in axes[1:]], indexing="ij")
    rest = np.stack([m.ravel() for m in mesh], axis=1)
    counts = np.zeros(radii.size, dtype=np.int64)
    for u0 in axes[0][0]:
        rest[:, 0] = u0
        r2 = chart.radial_sq(rest)
        counts += [np.count_nonzero(r2 <= r * r) for r in radii]
    return counts * math.prod(a[1] for a in axes)


def tie_radii(chart):
    """Radii up to 10 with one, sqrt(v), whose square is v, the r^2 of a grid node."""
    npts = variety._GROWTH_GRID.get(chart.intrinsic_dim, 65)
    axes = [variety._growth_axis(chart, dim, 10.0, npts)[0]
            for dim in range(chart.intrinsic_dim)]
    U = np.stack(np.meshgrid(*[a[::7] for a in axes], indexing="ij"), axis=-1)
    r2 = chart.radial_sq(U.reshape(-1, chart.intrinsic_dim))
    r2 = np.sort(r2[(r2 > 4.0) & (r2 < 81.0) & (np.sqrt(r2) ** 2 == r2)])
    tie = math.sqrt(r2[r2.size // 2])
    return np.array([2.0, tie, 9.5, 10.0])


GROWTH_CHARTS = ["euclid1", "identity1", "cylinder", "graph_x2", "modgraph_z2", "circle"]

# the modulus coefficients c of c z^2 that the benchmark's workloads draw
SCALE_LEVELS = (0.5, 2.0 ** -0.5, 1.0, 2.0 ** 0.5, 2.0)

# radial charts, whose growth grid is sampled on one octant: c z^2 at every
# level, an odd power, a complex coefficient, and a constant F (k = 0)
RADIAL_SPECS = [pytest.param({"kind": "modulus_graph", "F": f"{c!r}*x1^2"}, id=f"modgraph-c{c:.4g}")
                for c in SCALE_LEVELS] + [
    pytest.param({"kind": "modulus_graph", "F": F}, id=f"modgraph-{F}")
    for F in ("1*x1^3", "(1+2j)*x1^2", "2")]


class TestEuclidean:
    def test_density_is_one(self, euclid1):
        assert euclid1.volume_density(0.7) == 1.0

    def test_radial(self):
        c = chart_euclidean(2)
        assert c.radial_sq((3.0, 4.0)) == 25.0

    def test_dims(self):
        c = chart_euclidean(3)
        assert c.intrinsic_dim == 3 and c.ambient_dim == 3

    def test_invalid(self):
        with pytest.raises(ChartError):
            chart_euclidean(0)


class TestGraph:
    def test_zero_map_reduces_to_euclidean_measure(self):
        c = chart_graph([MultiPoly.zero(1)])
        u = np.linspace(-3, 3, 11)
        assert np.allclose(c.volume_density(u), 1.0, rtol=0, atol=0)
        assert np.allclose(c.radial_sq(u), u ** 2, rtol=1e-15)

    def test_parabola_density(self, graph_x2):
        # hand derivative: 1 + (2x)^2 at x = 1
        assert graph_x2.volume_density(1.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_parabola_radial(self, graph_x2):
        assert graph_x2.radial_sq(2.0) == pytest.approx(20.0, rel=1e-14)

    def test_non_univariate_component_rejected(self):
        x, y = variables(2)
        with pytest.raises(ChartError):
            chart_graph([x * y])

    def test_complex_typed_real_coefficients_embed_as_float64(self):
        (x,) = variables(1)
        sq = (x * 1j) * (x * -1j)  # x^2 with the coefficient (1+0j)
        chart = chart_graph([sq])
        u = np.array([0.5, 2.0])
        assert chart.embed(u).dtype == np.float64
        assert chart.volume_density(u).dtype == np.float64
        assert chart.radial_sq(2.0) == 20.0
        with pytest.raises(ChartError, match=r"components\[1\] must have finite real"):
            chart_graph([sq, x * 1j])


class TestRevolution:
    def test_cylinder_fields(self, cylinder):
        u = np.array([[0.7, 1.3], [-2.0, 4.0]])
        assert np.allclose(cylinder.volume_density(u), 1.0, rtol=1e-15)
        assert np.allclose(cylinder.radial_sq(u), 1.0 + u[:, 0] ** 2, rtol=1e-15)

    def test_flared_profile_density_at_zero(self):
        f = parse_poly("2+1*x1^2", 1)
        h = parse_poly("1*x1^1", 1)
        c = chart_revolution(f, h)
        # f'(0) = 0 and h' = 1, so density = f(0) * 1 = 2 for any angle
        assert c.volume_density((0.0, 2.1)) == pytest.approx(2.0, rel=1e-14)

    def test_complex_typed_real_coefficients_embed_as_float64(self):
        f = MultiPoly(1, {(0,): 2 + 0j, (2,): 1 + 0j})
        h = MultiPoly(1, {(1,): 1 + 0j})
        chart = chart_revolution(f, h)
        real = chart_revolution(parse_poly("2+1*x1^2", 1), parse_poly("1*x1^1", 1))
        u = np.array([[0.5, 1.0], [-2.0, 3.0]])
        assert chart.embed(u).dtype == np.float64
        assert np.array_equal(chart.embed(u), real.embed(u))
        assert np.array_equal(chart.volume_density(u), real.volume_density(u))
        with pytest.raises(ChartError, match="h must have finite real"):
            chart_revolution(f, h * 1j)

    def test_negative_profile_rejected(self):
        with pytest.raises(ChartError):
            chart_revolution(parse_poly("1*x1^1", 1), parse_poly("1", 1))

    def test_dipping_profile_rejected_via_critical_point(self):
        # f = x^2 - 1 + 2 = x^2 + 1 is fine; f = x^2 - 0.5 dips negative at 0
        with pytest.raises(ChartError):
            chart_revolution(parse_poly("1*x1^2-0.5", 1), parse_poly("1", 1),
                             u1_domain=(-2.0, 2.0))

    @pytest.mark.parametrize("profile", ["40-1*x1^1", "1+0.00001*x1^3"])
    def test_profile_negative_far_out_rejected(self, profile):
        # positive near the origin but negative far out (40 - u at u = 50,
        # 1 + 1e-5 u^3 at u = -60): a profile of odd degree is unbounded below
        with pytest.raises(ChartError):
            chart_revolution(parse_poly(profile, 1), parse_poly("1*x1^1", 1))

    def test_positive_quartic_with_dips_accepted(self):
        # x^4 - x^2 + c has minima at x^2 = 1/2 of value c - 1/4
        chart_revolution(parse_poly("1*x1^4-1*x1^2+0.3", 1), parse_poly("1*x1^1", 1))
        with pytest.raises(ChartError):
            chart_revolution(parse_poly("1*x1^4-1*x1^2+0.2", 1),
                             parse_poly("1*x1^1", 1))


class TestBoundedDomain:
    """A bounded u1_domain is checked where the chart is built, for API calls too."""

    @pytest.mark.parametrize("build", [
        lambda dom: chart_graph([parse_poly("1*x1^2", 1)], domain=dom),
        lambda dom: chart_revolution(parse_poly("1", 1), parse_poly("1*x1^1", 1),
                                     u1_domain=dom),
    ], ids=["graph", "revolution"])
    @pytest.mark.parametrize("domain", [
        (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0),
        (1e308, 1.7e308),  # finite ends, but |x|^2 overflows on them
    ], ids=["inf-hi", "inf-lo", "nan-lo", "reversed", "overflowing"])
    def test_bad_domain_raises_at_construction(self, build, domain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChartError, match="^u1_domain"):
                build(domain)

    def test_bounded_param_domain_needs_finite_ordered_ends(self):
        for lo, hi in [(0.0, math.inf), (math.nan, 1.0), (1.0, 1.0)]:
            with pytest.raises(ChartError, match="u1_domain"):
                ParamDomain("bounded", lo, hi)


class TestModulusGraph:
    def test_zero_polynomial_is_flat_plane(self):
        c = chart_modulus_graph(MultiPoly.zero(1))
        u = np.array([[1.0, 2.0], [-0.5, 0.25]])
        assert np.allclose(c.volume_density(u), 1.0, rtol=0, atol=0)
        assert np.allclose(c.radial_sq(u), u[:, 0] ** 2 + u[:, 1] ** 2, rtol=1e-15)

    def test_z2_density(self, modgraph_z2):
        # density sqrt(1 + 4 k^2 |z|^{2(2k-1)}) with k = 1 at z = 1
        assert modgraph_z2.volume_density((1.0, 0.0)) == pytest.approx(
            math.sqrt(5.0), rel=1e-14
        )

    def test_z2_radial_at_one_plus_i(self, modgraph_z2):
        # |z|^2 + |z^2|^2 = 2 + 4 at z = 1 + i
        assert modgraph_z2.radial_sq((1.0, 1.0)) == pytest.approx(6.0, rel=1e-14)


class TestRestrict:
    """A polynomial restricted to the variety is the polynomial on embedded points."""

    def test_circle_relation_on_cylinder(self, cylinder):
        x, y, z = variables(3)
        u = np.random.default_rng(0).uniform(-3, 3, size=(50, 2))
        u[:, 1] = np.abs(u[:, 1])
        assert np.allclose((x * x + y * y)(cylinder.embed(u)), 1.0, rtol=1e-14)

    def test_height_coordinate(self):
        f = parse_poly("2+1*x1^2", 1)
        h = parse_poly("1*x1^3", 1)
        c = chart_revolution(f, h)
        z = MultiPoly.variable(3, 2)
        assert z(c.embed((1.5, 0.3))) == pytest.approx(1.5 ** 3, rel=1e-14)

    def test_dimension_mismatch(self, cylinder):
        with pytest.raises(ValueError, match="dimension 3, expected 2"):
            MultiPoly.variable(2, 0)(cylinder.embed((0.5, 1.0)))


class TestChartInvariants:
    @pytest.mark.parametrize("fixture", [
        "euclid1", "cylinder", "graph_x2", "modgraph_z2", "circle",
    ])
    def test_radial_matches_embedding(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        rng = np.random.default_rng(0)
        U = rng.uniform(-2.5, 2.5, size=(100, chart.intrinsic_dim))
        for dom, col in zip(chart.domains, U.T):
            if dom.kind == "periodic":
                col %= 2.0 * math.pi
        r2 = chart.radial_sq(U)
        pts = chart.embed(U)
        direct = np.sum(pts * pts, axis=1)
        assert np.all(np.abs(r2 - direct) <= 1e-12 * np.maximum(direct, 1.0))

    @pytest.mark.parametrize("fixture", [
        "euclid1", "cylinder", "graph_x2", "modgraph_z2", "circle",
    ])
    def test_density_non_negative(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        rng = np.random.default_rng(23)
        U = rng.uniform(-4.0, 4.0, size=(200, chart.intrinsic_dim))
        assert np.all(chart.volume_density(U) >= 0.0)

    @pytest.mark.parametrize("fixture", ["graph_x2", "modgraph_z2"])
    def test_density_matches_fd_jacobian(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        for _ in range(25):
            u = rng.uniform(-2.0, 2.0, size=chart.intrinsic_dim)
            if chart.kind == "modulus_graph" and abs(complex(*u)) < 0.2:
                continue  # |F| is not differentiable at zeros of F
            dens = chart.volume_density(u)
            assert dens == pytest.approx(fd_density(chart, u), abs=1e-8, rel=1e-8)

    def test_density_matches_fd_jacobian_revolution(self, cylinder):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = np.array([rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi)])
            assert cylinder.volume_density(u) == pytest.approx(
                fd_density(cylinder, u), abs=1e-8
            )


class TestParamDegree:
    @pytest.mark.parametrize("spec,degree,radial", [
        ({"kind": "euclidean", "n": 3}, 1, False),
        ({"kind": "circle"}, 1, False),
        ({"kind": "graph", "components": []}, 1, False),
        ({"kind": "graph", "components": ["1*x1^2", "1*x1^3"]}, 3, False),
        ({"kind": "revolution", "f": "1", "h": "1*x1^1"}, 1, False),
        ({"kind": "revolution", "f": "2+1*x1^2", "h": "1*x1^1"}, 2, False),
        ({"kind": "modulus_graph", "F": "0.5*x1^2"}, 2, True),
        ({"kind": "modulus_graph", "F": "(1+2j)*x1^3"}, 3, True),
        ({"kind": "modulus_graph", "F": "2"}, 1, True),
        ({"kind": "modulus_graph", "F": "1+1*x1^2"}, 2, False),
    ])
    def test_recorded_by_each_kind(self, spec, degree, radial):
        chart = load_chart(spec)
        assert (chart.param_degree, chart.radial) == (degree, radial)

    def test_hand_built_chart_records_none(self, cylinder):
        chart = VarietyChart("revolution", 3, cylinder.domains, cylinder.embed,
                             cylinder.volume_density, "hand-built")
        assert (chart.param_degree, chart.radial) == (None, False)

    def test_radial_chart_depends_on_rho_only(self):
        chart = load_chart({"kind": "modulus_graph", "F": "(1+2j)*x1^3"})
        rng = np.random.default_rng(3)
        rho, theta = rng.uniform(0.0, 2.0, 50), rng.uniform(0.0, 2.0 * math.pi, 50)
        U = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
        on_axis = np.stack([rho, np.zeros(50)], axis=1)
        np.testing.assert_allclose(chart.radial_sq(U), chart.radial_sq(on_axis), rtol=1e-13)
        np.testing.assert_allclose(chart.volume_density(U), chart.volume_density(on_axis),
                                   rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 4),
                                st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)),
                      min_size=1, max_size=2, unique_by=lambda t: t[0]),
       rho=st.just(0.0) | st.floats(1e-3, 3.0), phi=st.floats(0.0, 2.0 * math.pi),
       theta=st.floats(0.0, 2.0 * math.pi))
def test_radial_flag_means_rotation_invariant_fields(terms, rho, phi, theta):
    chart = chart_modulus_graph(MultiPoly(1, {(k,): c for k, c in terms}))
    if not chart.radial:
        # c1 z^k1 + c2 z^k2: |F|^2 on the unit circle swings by 4 |c1| |c2|
        assert len(terms) == 2
        t = np.linspace(0.0, 2.0 * math.pi, 64)
        r2 = chart.radial_sq(np.stack([np.cos(t), np.sin(t)], axis=1))
        assert np.ptp(r2) > 1e-13 * np.max(r2)
        return
    assert len(terms) == 1
    u1, u2 = rho * math.cos(phi), rho * math.sin(phi)
    U = np.array([[u1, u2],
                  [math.cos(theta) * u1 - math.sin(theta) * u2,
                   math.sin(theta) * u1 + math.cos(theta) * u2],
                  [-u1, u2], [u1, -u2], [u2, u1]])
    for field in (chart.radial_sq, chart.volume_density):
        vals = field(U)
        np.testing.assert_allclose(vals[1:], vals[0], rtol=1e-13, atol=0)


class TestGrowth:
    def test_euclidean_interval_length(self, euclid1):
        g = estimate_growth(euclid1, np.linspace(2.0, 10.0, 9))
        assert np.allclose(g.volumes, 2.0 * g.radii, rtol=1e-3)
        assert g.slope == pytest.approx(1.0, abs=0.05)

    def test_cylinder_slice_oracle(self, cylinder):
        radii = np.linspace(2.0, 10.0, 9)
        g = estimate_growth(cylinder, radii)
        oracle = 2.0 * math.pi * 2.0 * np.sqrt(radii ** 2 - 1.0)
        assert np.allclose(g.volumes, oracle, rtol=1e-3)
        assert g.slope == pytest.approx(1.0, abs=0.1)

    def test_parabola_arc_length_oracle(self, graph_x2):
        radii = np.geomspace(10.0, 100.0, 8)
        g = estimate_growth(graph_x2, radii)
        # crossing x*(r) of x^2 + x^4 = r^2 in closed form, then arc length
        xs = np.sqrt((np.sqrt(1.0 + 4.0 * radii ** 2) - 1.0) / 2.0)
        oracle = []
        for x_max in xs:
            t = np.linspace(-x_max, x_max, 40001)
            oracle.append(np.trapezoid(np.sqrt(1.0 + 4.0 * t ** 2), t))
        assert np.allclose(g.volumes, oracle, rtol=1e-3)
        assert 0.8 <= g.slope <= 1.1

    @pytest.mark.parametrize("fixture", ["euclid1", "cylinder", "graph_x2", "modgraph_z2"])
    def test_volumes_monotone_and_bounded(self, fixture, request):
        chart = request.getfixturevalue(fixture)
        g = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
        assert np.all(np.diff(g.volumes) >= 0)
        assert np.all(g.volumes <= g.C * g.radii ** g.l * (1.0 + 1e-12))

    # 1000 nodes make one-row slabs of the 641 x 641 grid; 1500 make two-row
    # slabs and a one-row last slab.  Either way the 20001-node line ends on
    # a partial slab.
    @pytest.mark.parametrize("block", [1000, 1500])
    @pytest.mark.parametrize("fixture", GROWTH_CHARTS + RADIAL_SPECS)
    def test_slabs_match_whole_grid(self, fixture, block, request, monkeypatch):
        chart = request.getfixturevalue(fixture) if isinstance(fixture, str) else load_chart(fixture)
        monkeypatch.setattr(variety, "_GROWTH_BLOCK", block)
        for radii in (_FIT_RADII, _GROWTH_RADII):
            ref = reference_measure_volumes(chart, radii)
            vols = estimate_growth(chart, radii).volumes
            assert np.all(np.diff(vols) >= 0)
            assert np.all(np.abs(vols - ref) <= 1e-12 * ref)

    def test_ball_boundary_counts(self, circle, monkeypatch):
        # on the circle r^2 rounds to 1 exactly at some nodes and to 1 +- eps
        # at others; a node counts in B_r when r^2 <= r * r, as in the mask
        radii = np.array([1.0, 1.5, 2.0, 3.0])
        monkeypatch.setattr(variety, "_GROWTH_BLOCK", 1000)
        vols = variety._measure_volumes(circle, radii)
        assert np.all(np.abs(vols - reference_measure_volumes(circle, radii))
                      <= 1e-12 * vols)

    # the rules' fit radii, the growth command's radii, and a radius on a node
    @pytest.mark.parametrize("radii_of", [lambda chart: _FIT_RADII, lambda chart: _GROWTH_RADII,
                                          tie_radii], ids=["fit", "cli", "tie"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_euclidean_counts_match_every_node(self, n, radii_of):
        chart = chart_euclidean(n)
        radii = radii_of(chart)
        vols = variety._measure_volumes(chart, radii)
        assert np.array_equal(vols, counted_volumes(chart, radii))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3),
           radii=st.lists(st.floats(0.25, 12.0), min_size=1, max_size=6, unique=True))
    def test_euclidean_counts_match_sampled_grid(self, n, radii):
        radii = np.array(sorted(radii))
        counted = variety._measure_volumes(chart_euclidean(n), radii)
        assert np.array_equal(counted, variety._measure_volumes(identity_chart(n), radii))

    def test_euclidean_growth_evaluates_no_grid(self):
        seen = []

        def spy(field):
            def call(U):
                seen.append(U.shape[0])
                return field(U)
            return call

        chart = chart_euclidean(3)
        chart = dataclasses.replace(chart, _embed=spy(chart._embed), _density=spy(chart._density))
        estimate_growth(chart, _FIT_RADII)
        assert sum(seen) < 129 ** 3 // 20

    @pytest.mark.parametrize("F,nodes,solves", [
        ("1*x1^2", 321 * 322 // 2, 1),  # radial: one octant of one axis's grid
        ("1*x1^2+1*x1^1", 641 ** 2, 2),  # not radial: the whole grid
    ])
    def test_radial_growth_evaluates_one_octant(self, F, nodes, solves, monkeypatch):
        plain = load_chart({"kind": "modulus_graph", "F": F})
        seen, solved = {"embed": 0, "density": 0}, []

        def spy(name, field):
            def call(U):
                seen[name] += U.shape[0]
                return field(U)
            return call

        def solve(chart, dim, radius):  # on the plain chart, so the spies see only the grid
            solved.append(dim)
            return solve_param_bound(plain, dim, radius)

        chart = dataclasses.replace(plain, _embed=spy("embed", plain._embed),
                                    _density=spy("density", plain._density))
        monkeypatch.setattr(variety, "solve_param_bound", solve)
        estimate_growth(chart, _FIT_RADII)
        assert seen == {"embed": nodes, "density": nodes}
        assert len(solved) == solves

    def test_non_finite_density_in_last_slab(self):
        # only nodes with u1 > 0.99 have an infinite density, and they all
        # lie in the last slab of the 641 x 641 grid
        bad_slabs = []

        def density(U):
            bad = U[:, 0] > 0.99
            bad_slabs.append(bool(np.any(bad)))
            assert U.shape[0] <= variety._GROWTH_BLOCK
            return np.where(bad, np.inf, 1.0)

        square = ParamDomain("bounded", -1.0, 1.0)
        chart = VarietyChart("plane", 2, (square, square), lambda U: U.copy(),
                             density, "plane")
        with pytest.raises(GrowthError, match="non-finite volume density"):
            estimate_growth(chart, np.linspace(0.5, 2.0, 4))
        assert len(bad_slabs) > 1 and bad_slabs[-1] and not any(bad_slabs[:-1])

    def test_input_validation(self, euclid1):
        with pytest.raises(ValueError):
            estimate_growth(euclid1, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            estimate_growth(euclid1, [3.0, 2.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            estimate_growth(euclid1, [-1.0, 2.0, 3.0, 4.0])


class TestSolveParamBound:
    def test_euclidean_bound_covers_radius(self, euclid1):
        lo, hi = solve_param_bound(euclid1, 0, 5.0)
        assert lo <= -5.0 and hi >= 5.0
        assert hi <= 5.0 * 1.2

    def test_parabola_bound(self, graph_x2):
        lo, hi = solve_param_bound(graph_x2, 0, 8.0)
        # x^2 + x^4 = 64 crosses near x = 2.78
        assert 2.7 <= hi <= 3.2 and -3.2 <= lo <= -2.7

    def test_periodic_dimension_rejected(self, cylinder):
        with pytest.raises(ValueError):
            solve_param_bound(cylinder, 1, 5.0)


class TestParamInterval:
    def test_one_interval_per_domain_kind(self, cylinder, graph_x2):
        assert param_interval(cylinder, 1, 5.0) == (0.0, 2.0 * math.pi)
        assert param_interval(chart_graph([], domain=(-1.0, 2.5)), 0, 5.0) == (-1.0, 2.5)
        assert param_interval(graph_x2, 0, 8.0) == solve_param_bound(graph_x2, 0, 8.0)


class TestSpecFiles:
    def test_euclidean_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "euclidean", "n": 2}))
        chart = load_chart(path)
        assert chart.kind == "euclidean" and chart.ambient_dim == 2

    def test_revolution_spec(self):
        chart = load_chart({
            "kind": "revolution", "f": "1", "h": "1*x1^1",
            "u1_domain": "unbounded",
        })
        assert chart.kind == "revolution"
        assert chart.radial_sq((2.0, 0.0)) == pytest.approx(5.0)

    def test_graph_spec_with_domain(self):
        chart = load_chart({"kind": "graph", "components": [], "u1_domain": [-1, 1]})
        assert chart.domains[0].kind == "bounded"

    def test_modulus_graph_spec(self):
        chart = load_chart({"kind": "modulus_graph", "F": "1*x1^2"})
        assert chart.volume_density((1.0, 0.0)) == pytest.approx(math.sqrt(5.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecFileError, match="unknown"):
            load_chart({"kind": "euclidean", "n": 1, "extra": 3})

    def test_missing_required_key(self):
        with pytest.raises(SpecFileError, match="requires"):
            load_chart({"kind": "revolution", "f": "1"})

    def test_inapplicable_key(self):
        with pytest.raises(SpecFileError):
            load_chart({"kind": "euclidean", "n": 1, "F": "1*x1^1"})

    def test_bad_kind(self):
        with pytest.raises(SpecFileError, match="kind"):
            load_chart({"kind": "sphere"})

    def test_bad_polynomial(self):
        with pytest.raises(SpecFileError, match="parse"):
            load_chart({"kind": "modulus_graph", "F": "x0^^2"})

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(SpecFileError, match="nope.json"):
            load_chart(missing)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError, match="JSON"):
            load_chart(path)

    def test_bad_domain(self):
        with pytest.raises(SpecFileError, match="u1_domain"):
            load_chart({"kind": "graph", "components": [], "u1_domain": [2, 1]})

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (0.25, 3.5), (1e308, 1.7e308),
                                       (-1.7e308, 1.7e308), (-5e-324, 5e-324)])
    def test_baseline_is_a_finite_midpoint(self, lo, hi):
        mid = ParamDomain("bounded", lo, hi).baseline()
        assert math.isfinite(mid) and lo <= mid <= hi
        if math.isfinite(lo + hi):  # the value 0.5 * (lo + hi) had before
            assert mid == 0.5 * (lo + hi)

    @pytest.mark.parametrize("spec,u1", [
        # (u, u^3) is finite at lo but overflows at the midpoint
        ({"kind": "graph", "components": ["1*x1^3"], "u1_domain": [1, 1e200]}, "5e+199"),
        # the profile check meets f = inf at the ends without a numpy warning
        ({"kind": "revolution", "f": "1+1*x1^2", "h": "1*x1^1",
          "u1_domain": [1e308, 1.7e308]}, "1e+308"),
    ])
    def test_domain_whose_radius_overflows_rejected(self, spec, u1):
        with pytest.raises(SpecFileError, match=rf"u1_domain .* u1 = {re.escape(u1)}$"):
            load_chart(spec)

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "euclidean", "n": True}, "n must"),
        ({"kind": "graph", "components": [], "u1_domain": [True, 2]}, "u1_domain"),
        ({"kind": "revolution", "f": "1", "h": "1*x1^1", "u1_domain": [0, True]},
         "u1_domain"),
    ])
    def test_json_booleans_are_not_numbers(self, spec, field):
        with pytest.raises(SpecFileError, match=field):
            load_chart(spec)

    @pytest.mark.parametrize("spec,label", [
        ({"kind": "graph", "components": ["1*x1^2", 3]}, r"components\[1\] must"),
        ({"kind": "graph", "components": ["x0^^2"]}, r"parse .*components\[0\]="),
        ({"kind": "revolution", "f": 1, "h": "1*x1^1"}, "f must"),
        ({"kind": "revolution", "f": "1", "h": "x0^^2"}, "parse .*h="),
    ])
    def test_polynomial_errors_name_the_field(self, spec, label):
        with pytest.raises(SpecFileError, match=label):
            load_chart(spec)

    @pytest.mark.parametrize("spec,chart_id", [
        ({"kind": "graph", "components": ["1*x1^2"]}, "graph([1*x1^2],R)"),
        ({"kind": "graph", "components": [], "u1_domain": [-1, 2.5]}, "graph([],[-1,2.5])"),
        ({"kind": "revolution", "f": "1", "h": "1*x1^1"},
         "revolution(f=1,h=1*x1^1,u1=R)"),
        ({"kind": "revolution", "f": "2", "h": "1*x1^1", "u1_domain": [0, 1]},
         "revolution(f=2,h=1*x1^1,u1=[0,1])"),
    ])
    def test_chart_ids(self, spec, chart_id):
        assert load_chart(spec).chart_id == chart_id

    def test_circle_spec(self):
        chart = load_chart({"kind": "circle"})
        assert chart.radial_sq(1.0) == 1.0

    @pytest.mark.parametrize("kind", [["graph"], {"kind": "graph"}, 3, None])
    def test_non_string_kind_rejected(self, kind):
        with pytest.raises(SpecFileError, match="kind must be one of"):
            load_chart({"kind": kind})

    @pytest.mark.parametrize("spec,label", [
        ({"kind": "revolution", "f": "nan", "h": "1*x1^1"}, "f must have finite real"),
        ({"kind": "revolution", "f": "(1+2j)", "h": "1*x1^1"}, "f must have finite real"),
        ({"kind": "revolution", "f": "1", "h": "inf*x1^1"}, "h must have finite real"),
        ({"kind": "graph", "components": ["1*x1^2", "inf*x1^2"]},
         r"components\[1\] must have finite real"),
        ({"kind": "graph", "components": ["1e400*x1"]},
         r"components\[0\] must have finite real"),
        ({"kind": "modulus_graph", "F": "nan*x1^2"}, "F must have finite coefficients"),
    ])
    def test_coefficients_must_be_finite_and_real(self, spec, label):
        with pytest.raises(SpecFileError, match=label):
            load_chart(spec)

    def test_modulus_graph_takes_complex_coefficients(self):
        chart = load_chart({"kind": "modulus_graph", "F": "(1+2j)*x1^2"})
        assert chart.radial_sq((1.0, 0.0)) == pytest.approx(6.0, rel=1e-15)


# a fixed pool of spec values: kind strings and non-strings, ints and bools,
# floats with nan and inf, lists, and polynomial texts (all of degree <= 2)
POOL = ["euclidean", "graph", "revolution", "modulus_graph", "circle", "sphere", "unbounded",
        None, 0, 1, 3, -2, True, False, 0.5, -1.0, math.nan, math.inf,
        [], ["graph"], ["1*x1^2", "nan"], [-1, 1], [0, 2.5], [1, 0], [math.nan, 1],
        [0, math.inf], [True, 2],
        "1*x1^2", "2+1*x1^2", "nan", "inf*x1^2", "(1+2j)", "x0^^2"]
# one valid spec per kind; a draw changes, adds or drops keys of one
VALID_SPECS = [{"kind": "euclidean", "n": 3},
               {"kind": "graph", "components": ["1*x1^2"], "u1_domain": [-1, 1]},
               {"kind": "revolution", "f": "2+1*x1^2", "h": "1*x1^2"},
               {"kind": "modulus_graph", "F": "(1+2j)"},
               {"kind": "circle"}]
SPEC_KEYS = ("kind", "f", "h", "F", "components", "n", "u1_domain", "extra")


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(VALID_SPECS),
       changes=st.dictionaries(st.sampled_from(SPEC_KEYS), st.sampled_from(POOL), max_size=2),
       drop=st.sets(st.sampled_from(SPEC_KEYS), max_size=1))
def test_load_chart_raises_only_spec_file_error(base, changes, drop):
    spec = {key: value for key, value in {**base, **changes}.items() if key not in drop}
    try:
        chart = load_chart(spec)
    except SpecFileError:
        return
    assert isinstance(chart, VarietyChart)
    assert np.all(np.isfinite(chart.embed([d.baseline() for d in chart.domains])))
