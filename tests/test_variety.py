import json
import math

import numpy as np
import pytest

from gaussvar import variety
from gaussvar.polyring import MultiPoly, parse_poly, variables
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


GROWTH_CHARTS = ["euclid1", "cylinder", "graph_x2", "modgraph_z2", "circle"]


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
    @pytest.mark.parametrize("fixture", GROWTH_CHARTS)
    def test_slabs_match_whole_grid(self, fixture, block, request, monkeypatch):
        chart = request.getfixturevalue(fixture)
        radii = np.linspace(2.0, 10.0, 9)
        ref = reference_measure_volumes(chart, radii)
        monkeypatch.setattr(variety, "_GROWTH_BLOCK", block)
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
