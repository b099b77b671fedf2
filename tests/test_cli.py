import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import residual_oracle
from gaussvar import cli, orthobasis, quadrature, variety
from gaussvar.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


@pytest.fixture()
def euclid_spec(tmp_path):
    path = tmp_path / "euclid.json"
    path.write_text(json.dumps({"kind": "euclidean", "n": 1}))
    return path


@pytest.fixture()
def cylinder_spec(tmp_path):
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps({"kind": "revolution", "f": "1", "h": "1*x1^1"}))
    return path


@pytest.fixture()
def shifted_cylinder_spec(tmp_path):
    # the unit cylinder with its weight about u1 = 60, past the box solver's bracket
    path = tmp_path / "shifted_cylinder.json"
    path.write_text(json.dumps({"kind": "revolution", "f": "1", "h": "1*x1^1-60"}))
    return path


@pytest.fixture()
def graph_spec(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "graph", "components": ["1*x1^2"]}))
    return path


@pytest.fixture()
def circle_spec(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle"}))
    return path


@pytest.fixture()
def interval_graph_spec(tmp_path):
    path = tmp_path / "interval_graph.json"
    path.write_text(json.dumps({"kind": "graph", "components": ["1*x1^2"],
                                "u1_domain": [-1, 1]}))
    return path


# the flags each command reads, besides --out, and a valid value for each flag
READS = {
    "moments": ("--spec", "--mmax", "--eps", "--nodes"),
    "growth": ("--spec",),
    "basis": ("--spec", "--degree", "--eps", "--nodes", "--weight"),
    "project": ("--spec", "--degree", "--eps", "--nodes", "--weight", "--alpha"),
    "lemma": ("--mmax", "--k"),
    "equivalence": ("--spec", "--eps", "--nodes", "--alpha"),
}
VALUES = {"--spec": "spec.json", "--mmax": "2", "--degree": "2", "--eps": "1e-10",
          "--nodes": "8", "--weight": "none", "--alpha": "0.25", "--k": "1"}
UNREAD = [(command, flag) for command, flags in READS.items()
          for flag in VALUES if flag not in flags]


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestMoments:
    def test_gamma_oracle(self, euclid_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["moments", "--spec", str(euclid_spec), "--mmax", "2",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "moments.csv")
        assert header == ["m", "I_m", "tail_bound", "R", "nodes"]
        values = [float(r[1]) for r in rows]
        expected = [math.gamma((m + 1) / 2.0) for m in range(3)]
        for got, want in zip(values, expected):
            assert got == pytest.approx(want, rel=1e-8)

    def test_single_row_for_mmax_zero(self, euclid_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["moments", "--spec", str(euclid_spec), "--mmax", "0",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "moments.csv")
        assert len(rows) == 1

    def test_high_order_on_circle(self, circle_spec, tmp_path):
        # r = 1 on the circle, so every I_m is I_0; radii whose tail budget
        # overflows are passed over
        out = tmp_path / "out"
        assert main(["moments", "--spec", str(circle_spec), "--mmax", "400",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "moments.csv")
        assert len(rows) == 401
        I0 = float(rows[0][1])
        assert all(abs(float(r[1]) - I0) <= 1e-15 * I0 for r in rows)
        assert all(float(r[2]) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("mmax", ["250", "400"])
    def test_overflowing_moment_writes_one_stderr_line(self, mmax, cylinder_spec,
                                                       tmp_path, src_env):
        # r^m overflows at the edge of the box; a child interpreter, so that
        # numpy warnings reach stderr as they would
        proc = subprocess.run(
            [sys.executable, "-m", "gaussvar.cli", "moments", "--mmax", mmax,
             "--spec", str(cylinder_spec), "--out", str(tmp_path / "o")],
            env=src_env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gaussvar moments: ")

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = main(["moments", "--spec", str(missing), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "absent.json" in capsys.readouterr().err

    def test_spec_flag_required(self, tmp_path, capsys):
        assert main(["moments", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "--spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moments", "growth"])
    @pytest.mark.parametrize("domain", ["[-Infinity, 1]", "[0, Infinity]", "[NaN, 1]"])
    def test_non_finite_domain_exits_2(self, command, domain, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "graph", "components": ["1*x1^2"], '
                        f'"u1_domain": {domain}}}')
        code = main([command, "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "u1_domain" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moments", "growth"])
    @pytest.mark.parametrize("chart", [
        {"kind": "graph", "components": ["1*x1^1"]},
        {"kind": "revolution", "f": "1", "h": "1*x1^1"},
    ], ids=["graph", "revolution"])
    @pytest.mark.parametrize("domain", [[1e308, 1.7e308], [-1.5e308, 1.5e308]],
                             ids=["near-max", "symmetric"])
    def test_domain_whose_radius_overflows_exits_2(self, command, chart, domain,
                                                   tmp_path, capsys):
        # finite bounds, but |x|^2 overflows on them; no numpy warning first
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**chart, "u1_domain": domain}))
        code = main([command, "--spec", str(spec), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(lines) == 1 and lines[0].startswith(
            f"gaussvar {command}: invalid chart: u1_domain")

    @pytest.mark.parametrize("command", ["growth", "moments"])
    @pytest.mark.parametrize("chart", [
        {"kind": "graph", "components": ["1e200*x1^2"]},
        {"kind": "graph", "components": ["1e150*x1^3"]},
        {"kind": "modulus_graph", "F": "1e300*x1^2"},
        {"kind": "revolution", "f": "1e200+1*x1^2", "h": "1*x1^1"},
    ], ids=["graph-square", "graph-cube", "modulus-graph", "revolution"])
    def test_radius_overflowing_in_bracket_or_grid_exits_1(self, command, chart,
                                                          tmp_path, capsys):
        # |x|^2 overflows while the parameter bound is bracketed or the growth
        # grid is measured; it counts as outside every ball, with no numpy warning
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(chart))
        code = main([command, "--spec", str(spec), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_NUMERICAL
        assert len(lines) == 1 and lines[0].startswith(f"gaussvar {command}: ")

    @pytest.mark.parametrize("command", ["moments", "equivalence"])
    def test_a_chart_past_the_sampled_bracket_names_the_interval(self, command,
                                                                 shifted_cylinder_spec,
                                                                 tmp_path, capsys):
        # every u1 in [50.05, 69.95] lies in the ball, but the box solver samples
        # only [-20, 20]; the message names the side it found empty
        code = main([command, "--spec", str(shifted_cylinder_spec),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines() == [
            f"gaussvar {command}: chart misses the ball of radius 10 along parameter 0: "
            f"no sample of [0, 20], on one side of its baseline 0, has r^2 <= 100"]

    @pytest.mark.parametrize("spec,field", [
        ({"kind": ["graph"]}, "kind must be one of"),
        ({"kind": "revolution", "f": "nan", "h": "1*x1^1"}, "invalid chart: f must have"),
        ({"kind": "graph", "components": ["inf*x1^2"]},
         "invalid chart: components[0] must have"),
        ({"kind": "graph", "components": ["1e400*x1"]},
         "invalid chart: components[0] must have"),
        ({"kind": "revolution", "f": "(1+2j)", "h": "1*x1^1"}, "invalid chart: f must have"),
    ])
    def test_invalid_spec_field_exits_2(self, spec, field, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["moments", "--spec", str(path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(lines) == 1 and lines[0].startswith(f"gaussvar moments: {field}")


class TestRuleSettings:
    @pytest.mark.parametrize("command", ["moments", "basis"])
    @pytest.mark.parametrize("flag,value", [
        ("--nodes", "3"), ("--eps", "0"), ("--eps", "-1"),
    ])
    def test_bad_value_exits_2(self, command, flag, value, euclid_spec,
                               tmp_path, capsys):
        code = main([command, "--spec", str(euclid_spec), flag, value,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err


    @pytest.mark.parametrize("command,rules", [
        pytest.param(("moments",), 1, id="moments"),
        pytest.param(("basis", "--degree", "2"), 0, id="basis"),  # on the exact gauss_rule
        pytest.param(("project", "--degree", "2"), 0, id="project"),  # in 1-D, on no rule
        pytest.param(("equivalence",), 1, id="equivalence")])
    def test_one_truncated_rule_per_study(self, command, rules, cylinder_spec, tmp_path,
                                          monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = quadrature.truncated_rule
        monkeypatch.setattr(quadrature, "truncated_rule", counting)
        assert main([*command, "--spec", str(cylinder_spec), "--nodes", "16",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == rules

    @pytest.mark.parametrize("command,rules", [("basis", ["gauss_rule"]), ("project", [])],
                             ids=["basis", "project"])
    def test_euclidean_gram_needs_no_truncated_rule(self, command, rules, euclid_spec,
                                                    tmp_path, monkeypatch):
        # the Gram rule is Gauss-Hermite, and project works in 1-D and builds no rule
        calls = []

        def counting(name):
            original = getattr(quadrature, name)

            def spy(*args, **kwargs):
                calls.append((name, args))
                return original(*args, **kwargs)
            return spy

        for name in ("estimate_growth", "build_rule", "gauss_rule", "truncated_rule"):
            monkeypatch.setattr(quadrature, name, counting(name))
        assert main([command, "--spec", str(euclid_spec), "--degree", "4",
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert [name for name, _ in calls] == rules
        assert all(degree == 4 for _, (_, degree) in calls)  # the Gram rule's degree


class TestLemma:
    def test_cm_column_decays(self, tmp_path):
        out = tmp_path / "out"
        assert main(["lemma", "--k", "1.0", "--mmax", "60",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "cm.csv")
        assert header == ["k", "m", "cm_closed", "cm_brute", "cstar"]
        assert len(rows) == 60
        assert float(rows[-1][2]) < 1e-6

    def test_overflowing_cm_names_k_and_m(self, tmp_path, capsys):
        # ln C_1 at k = 54 is about 736, past the largest exp argument of a double
        code = main(["lemma", "--k", "54", "--mmax", "1", "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_NUMERICAL
        assert len(lines) == 1 and "k=54" in lines[0] and "m=1" in lines[0]

    def test_bad_k_exits_2(self, tmp_path, capsys):
        assert main(["lemma", "--k", "zero", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["nan", "inf", "1,inf"])
    def test_non_finite_k_exits_2(self, k, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["lemma", "--k", k, "--out", str(out)]) == EXIT_CONFIG
        assert "--k" in capsys.readouterr().err
        assert not (out / "cm.csv").exists()

    @pytest.mark.parametrize("k", ["1e200", "1e154", "1e-160", "1e-300", "1,1e-300"])
    def test_k_outside_the_lemmas_domain_exits_2(self, k, tmp_path, capsys):
        # these wrote NaN, or a 0 from an overflowed w*w, or raised ZeroDivisionError
        out = tmp_path / "o"
        assert main(["lemma", "--k", k, "--mmax", "3", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--k" in err and f"k={float(k.split(',')[-1])}" in err
        assert not (out / "cm.csv").exists()

    def test_k_inside_the_domain_writes_finite_rows(self, tmp_path):
        out = tmp_path / "o"
        assert main(["lemma", "--k", "1e-70,0.05", "--mmax", "3", "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "cm.csv")
        assert len(rows) == 6 and all(math.isfinite(float(c)) for r in rows for c in r[:4])


class TestGrowth:
    def test_graph_slope_column(self, graph_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["growth", "--spec", str(graph_spec), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "growth.csv")
        assert header == ["r", "volume", "C", "l", "slope"]
        slope = float(rows[0][4])
        assert 0.8 <= slope <= 1.1
        volumes = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(volumes, volumes[1:]))


class TestBasis:
    def test_writes_gram_and_basis(self, euclid_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["basis", "--spec", str(euclid_spec), "--degree", "3",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "gram.csv")
        assert header == ["i", "j", "value"]
        assert len(rows) == 16
        header, rows = read_rows(out / "basis.csv")
        assert header == ["basis_index", "monomial_exponents", "coefficient"]
        assert rows[0][0] == "0"
        assert float(rows[0][2]) == pytest.approx(math.pi ** -0.25, rel=1e-10)

    def test_gram_csv_reads_back_exactly(self, cylinder_spec, tmp_path, monkeypatch):
        built = []
        original = orthobasis.gram_matrix

        def capturing(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(orthobasis, "gram_matrix", capturing)
        out = tmp_path / "out"
        assert main(["basis", "--spec", str(cylinder_spec), "--degree", "12",
                     "--out", str(out)]) == EXIT_OK
        G = built[0].gram
        N = G.shape[0]
        assert N == 455
        header, rows = read_rows(out / "gram.csv")
        assert header == ["i", "j", "value"] and len(rows) == N * N
        assert [int(r[0]) for r in rows] == np.repeat(np.arange(N), N).tolist()
        assert [int(r[1]) for r in rows] == np.tile(np.arange(N), N).tolist()
        values = np.array([float(r[2]) for r in rows])
        # bit for bit, so -0.0 and 0.0 count as different
        assert np.array_equal(values.view(np.int64), G.ravel().view(np.int64))

    def test_surface_studies_build_the_class_tables_once(self, cylinder_spec, tmp_path):
        # basis and project at degree 12 on both surface charts, as a
        # surface-sweep pass runs them: every Gram matrix, gram.csv and
        # elimination reads the tables of the same 455 monomials in 3 variables;
        # the cylinder's project works in 1-D and forms none of them
        modgraph_spec = tmp_path / "modgraph.json"
        modgraph_spec.write_text(json.dumps({"kind": "modulus_graph", "F": "1*x1^2"}))
        tables = (orthobasis._sum_classes, orthobasis._divisor_table)
        for table in tables:
            table.cache_clear()
        for spec in (cylinder_spec, modgraph_spec):
            for command in ("basis", "project"):
                assert main([command, "--spec", str(spec), "--degree", "12",
                             "--out", str(tmp_path / command / spec.stem)]) == EXIT_OK
        classes, divisors = (table.cache_info() for table in tables)
        assert (classes.misses, classes.hits) == (1, 4)  # 3 gram_matrix + 2 gram_to_csv
        assert (divisors.misses, divisors.hits) == (1, 2)  # 3 orthonormalize

    def test_a_cylinder_shifted_in_its_parameter_gets_the_cylinders_gram(
            self, cylinder_spec, shifted_cylinder_spec, tmp_path):
        grams = []
        for spec in (cylinder_spec, shifted_cylinder_spec):
            out = tmp_path / spec.stem
            assert main(["basis", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
            grams.append(np.array([float(r[2]) for r in read_rows(out / "gram.csv")[1]]))
        G, ref = (g.reshape(84, 84) for g in grams)  # degree 6: 84 monomials
        d = np.sqrt(np.diag(ref))
        assert np.max(np.abs(G - ref) / np.outer(d, d)) <= 1e-12

    @pytest.mark.parametrize("command", ["basis", "project"])
    @pytest.mark.parametrize("degree,count", [(28, 4495), (200, 1373701)])
    def test_a_degree_past_the_monomial_limit_exits_2(self, command, degree, count,
                                                      cylinder_spec, tmp_path, capsys,
                                                      monkeypatch):
        # refused before a rule is chosen, let alone a Gram matrix allocated
        monkeypatch.setattr(quadrature, "study_rules",
                            lambda *a, **k: pytest.fail("a rule was chosen"))
        code = main([command, "--spec", str(cylinder_spec), "--degree", str(degree),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"gaussvar {command}: --degree {degree} gives {count} monomials in 3 "
            f"variables, more than the limit 4096"]

    def test_huge_degree_writes_one_stderr_line(self, euclid_spec, tmp_path, src_env):
        # hermgauss warns of overflow at 401 nodes; in a child interpreter under
        # -W error, a warning that escaped would be a second stderr line
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "gaussvar.cli", "basis",
             "--spec", str(euclid_spec), "--degree", "400", "--out", str(tmp_path / "o")],
            env=src_env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gaussvar basis: ")
        assert "degree 400" in lines[0]


class TestProject:
    def test_cylinder_residuals_strictly_decreasing(self, cylinder_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["project", "--spec", str(cylinder_spec), "--degree", "8",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "projection.csv")
        assert header == ["D", "residual_norm", "f_norm", "rel_residual"]
        assert [r[0] for r in rows] == ["2", "4", "6", "8"]
        rels = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(rels, rels[1:]))

    def test_sweep_uses_one_factorization(self, tmp_path, monkeypatch):
        # on the modulus graph, whose project keeps the Gram path
        modgraph_spec = tmp_path / "modgraph.json"
        modgraph_spec.write_text(json.dumps({"kind": "modulus_graph", "F": "1*x1^2"}))
        calls = []
        original = orthobasis.orthonormalize

        def counting(*args, **kwargs):
            calls.append(args[0].degree_cap)
            return original(*args, **kwargs)

        monkeypatch.setattr(orthobasis, "orthonormalize", counting)
        assert main(["project", "--spec", str(modgraph_spec), "--degree", "8",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == [8]


    @pytest.fixture
    def euclid3_spec(self, tmp_path):
        path = tmp_path / "euclid3.json"
        path.write_text(json.dumps({"kind": "euclidean", "n": 3}))
        return path

    def test_a_cylinder_shifted_in_its_parameter_gets_the_cylinders_projection(
            self, cylinder_spec, shifted_cylinder_spec, tmp_path):
        # the 1-D support comes from the roots of r^2(t) - cap, past the box solver's
        # sampled bracket, which the Gram path still needs
        cols = []
        for spec in (cylinder_spec, shifted_cylinder_spec):
            out = tmp_path / spec.stem
            assert main(["project", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
            cols.append(np.array([[float(c) for c in row[1:3]]
                                  for row in read_rows(out / "projection.csv")[1]]))
        assert np.max(np.abs(cols[1] - cols[0])) <= 1e-12 * cols[0][0, 1]

    def test_euclidean_target_at_alpha_045_matches_the_closed_form(self, euclid3_spec,
                                                                  tmp_path):
        out = tmp_path / "o"
        assert main(["project", "--spec", str(euclid3_spec), "--degree", "6",
                     "--alpha", "0.45", "--out", str(out)]) == EXIT_OK
        f_norm = residual_oracle.f_norm(3, 0.45)
        exact = residual_oracle.residual_norms(3, 0.45, 6)
        _, rows = read_rows(out / "projection.csv")
        assert [int(r[0]) for r in rows] == [2, 4, 6]
        for D, residual, norm, _ in rows:
            assert abs(float(norm) - f_norm) <= 1e-12 * f_norm
            assert abs(float(residual) - exact[int(D)]) <= 1e-12 * f_norm

    @pytest.mark.parametrize("spec", ["euclid3_spec", "cylinder_spec"])
    def test_a_tiny_eps_exits_1_naming_the_degree_and_the_move(self, spec, tmp_path,
                                                               capsys, request):
        out = tmp_path / "o"
        code = main(["project", "--spec", str(request.getfixturevalue(spec)),
                     "--degree", "6", "--eps", "1e-30", "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_NUMERICAL and not (out / "projection.csv").exists()
        assert len(lines) == 1 and "eps=1e-30" in lines[0]
        assert re.search(r"move (f_norm|the residual at D = \d) by \S+ f_norm", lines[0])

    @pytest.mark.parametrize("spec", ["euclid3_spec", "cylinder_spec"])
    def test_the_1d_path_does_not_read_nodes(self, spec, tmp_path, request):
        texts = []
        for nodes in ("8", "40"):
            out = tmp_path / nodes
            assert main(["project", "--spec", str(request.getfixturevalue(spec)),
                         "--degree", "6", "--nodes", nodes, "--out", str(out)]) == EXIT_OK
            texts.append((out / "projection.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_a_kinked_revolution_exits_1_naming_the_panel_move(self, tmp_path, capsys):
        # the density |h'| kinks at u = +-1/sqrt(3), inside a panel: the panels do
        # not settle the projection, and the run says so
        spec = tmp_path / "kinked.json"
        spec.write_text(json.dumps({"kind": "revolution", "f": "1",
                                    "h": "0.5*x1^1-0.5*x1^3"}))
        for degree in ("2", "4", "8"):
            out = tmp_path / degree
            code = main(["project", "--spec", str(spec), "--degree", degree,
                         "--out", str(out)])
            lines = capsys.readouterr().err.splitlines()
            assert code == EXIT_NUMERICAL and not (out / "projection.csv").exists()
            assert len(lines) == 1 and "twice the panels move" in lines[0]
            assert "more than eps=1e-12" in lines[0]


class TestAlpha:
    @pytest.mark.parametrize("command", ["project", "equivalence"])
    @pytest.mark.parametrize("alpha", ["0.5", "0.6", "nan", "inf"])
    def test_not_square_integrable_exits_2(self, command, alpha, cylinder_spec,
                                           tmp_path, capsys):
        code = main([command, "--spec", str(cylinder_spec), "--alpha", alpha,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["project", "equivalence"])
    def test_nan_exits_2_on_compact_chart(self, command, circle_spec, tmp_path, capsys):
        code = main([command, "--spec", str(circle_spec), "--alpha", "nan",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["circle_spec", "interval_graph_spec"])
    def test_compact_chart_takes_any_finite_alpha(self, spec, tmp_path, request):
        out = tmp_path / "out"
        assert main(["project", "--spec", str(request.getfixturevalue(spec)),
                     "--degree", "4", "--alpha", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out / "projection.csv")
        assert [r[0] for r in rows] == ["2", "4"]
        assert all(math.isfinite(float(r[3])) for r in rows)


    @pytest.mark.parametrize("weight", ["gauss", "none"])
    def test_non_finite_projection_exits_1(self, weight, circle_spec, tmp_path, capsys):
        # e^{400 r^2} = e^400 is finite on the unit circle; its squared norm is not
        out = tmp_path / "o"
        code = main(["project", "--spec", str(circle_spec), "--degree", "4",
                     "--alpha", "400", "--weight", weight, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "non-finite squared target norm" in capsys.readouterr().err
        assert not (out / "projection.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("project", "--degree", "4", "--alpha", "400"),
        ("project", "--degree", "4", "--alpha", "800"),
        ("equivalence", "--alpha", "400"),
        ("equivalence", "--alpha", "354.5"),  # finite samples, overflowing sum
    ], ids=["project-400", "project-800", "equivalence-400", "equivalence-354.5"])
    def test_overflow_writes_one_stderr_line(self, argv, circle_spec, tmp_path, src_env):
        # a child interpreter, so that numpy warnings reach stderr as they would
        proc = subprocess.run(
            [sys.executable, "-m", "gaussvar.cli", *argv, "--spec", str(circle_spec),
             "--out", str(tmp_path / "o")],
            env=src_env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"gaussvar {argv[0]}: ")


class TestWeight:
    @pytest.mark.parametrize("command", ["basis", "project"])
    def test_none_on_non_compact_chart_exits_2(self, command, cylinder_spec, tmp_path,
                                               capsys):
        # plain dmu has infinite mass there; the truncated box's area is no answer
        out = tmp_path / "o"
        code = main([command, "--spec", str(cylinder_spec), "--degree", "2",
                     "--weight", "none", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--weight" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["basis", "project"])
    @pytest.mark.parametrize("spec", ["circle_spec", "interval_graph_spec"])
    def test_none_on_compact_chart(self, command, spec, tmp_path, request):
        assert main([command, "--spec", str(request.getfixturevalue(spec)),
                     "--degree", "2", "--weight", "none",
                     "--out", str(tmp_path / "o")]) == EXIT_OK


class TestEquivalence:
    def test_pairs_agree(self, euclid_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["equivalence", "--spec", str(euclid_spec),
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out / "equivalence.csv")
        assert header == ["pair", "lhs", "rhs", "rel_gap"]
        assert len(rows) == 3
        by_pair = {r[0]: r for r in rows}
        row = by_pair["coord1_sq_vs_zero"]
        exact = 3.0 * math.sqrt(math.pi) / 4.0
        assert float(row[1]) == pytest.approx(exact, rel=1e-8)
        assert float(row[2]) == pytest.approx(exact, rel=1e-8)
        for r in rows:
            if r[0] != "coord1_sq_vs_itself":
                assert float(r[3]) <= 1e-8

    def test_one_sample_per_rule(self, cylinder_spec, tmp_path, monkeypatch):
        # three pairs, two rules: each node of each rule is sampled exactly once
        calls = []
        original = quadrature.node_blocks

        def counting(chart, rule):
            sampled = []
            calls.append((rule, sampled))
            for block in original(chart, rule):
                sampled.append(block.nodes)
                yield block

        monkeypatch.setattr(quadrature, "node_blocks", counting)
        assert main(["equivalence", "--spec", str(cylinder_spec),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == 2 and calls[0][0] is not calls[1][0]
        for rule, sampled in calls:
            nodes = np.concatenate([np.arange(s.start, s.stop) for s in sampled])
            np.testing.assert_array_equal(nodes, np.arange(rule.weights.size))


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, euclid_spec, cylinder_spec, tmp_path):
        jobs = [
            ["moments", "--spec", str(euclid_spec), "--mmax", "4"],
            ["lemma", "--k", "0.5,1.0", "--mmax", "20"],
            ["basis", "--spec", str(euclid_spec), "--degree", "4"],
            ["growth", "--spec", str(cylinder_spec)],
        ]
        for i, job in enumerate(jobs):
            out_a = tmp_path / f"a{i}"
            out_b = tmp_path / f"b{i}"
            assert main(job + ["--out", str(out_a)]) == EXIT_OK
            assert main(job + ["--out", str(out_b)]) == EXIT_OK
            files_a = sorted(p.name for p in out_a.iterdir())
            files_b = sorted(p.name for p in out_b.iterdir())
            assert files_a == files_b and files_a
            for name in files_a:
                data = (out_a / name).read_bytes()
                assert data == (out_b / name).read_bytes()
                assert b"\r" not in data and data.endswith(b"\n")


class TestOneParser:
    """The parser is built once per process; no call leaves a trace on the next."""

    def test_in_process_sequence_matches_fresh_interpreters(self, euclid_spec, tmp_path,
                                                            src_env, capsys):
        spec = ["--spec", str(euclid_spec)]
        studies = {  # output directory -> argv without --out
            "basis3": ["basis", *spec, "--degree", "3"],
            "basis": ["basis", *spec],
            "lemma_k": ["lemma", "--k", "0.5,2", "--mmax", "5"],
            "lemma": ["lemma"],
        }
        assert main(["moments", *spec, "--nodes", "3", "--mmax", "9",
                     "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as err:
            main(["basis", "--help"])
        assert err.value.code == 0
        with pytest.raises(SystemExit) as err:
            main(["basis", *spec, "--weight", "uniform"])
        assert err.value.code == 2
        capsys.readouterr()
        for name, argv in studies.items():
            assert main(argv + ["--out", str(tmp_path / "one" / name)]) == EXIT_OK
        for name, argv in studies.items():
            out = tmp_path / "fresh" / name
            proc = subprocess.run([sys.executable, "-m", "gaussvar.cli", *argv,
                                   "--out", str(out)], env=src_env, capture_output=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            one = tmp_path / "one" / name
            files = sorted(p.name for p in out.iterdir())
            assert files == sorted(p.name for p in one.iterdir())
            for file in files:
                assert (out / file).read_bytes() == (one / file).read_bytes()
        # the defaults came back after --degree 3 and --k 0.5,2
        assert (tmp_path / "one" / "basis3" / "basis.csv").read_bytes() != (
            tmp_path / "one" / "basis" / "basis.csv").read_bytes()
        assert {r[0] for r in read_rows(tmp_path / "one" / "lemma" / "cm.csv")[1]} == {"1"}
        for command, (_, _, flags) in cli._COMMANDS.items():
            args = cli._build_parser().parse_args([command])
            assert {flag: getattr(args, flag) for flag in flags} == {
                flag: default for flag, (default, _) in flags.items()}
            assert args.out == "out"

    def test_built_once_and_not_at_import(self, tmp_path, src_env):
        code = ("import sys\n"
                "import gaussvar.cli as cli\n"
                "print(cli._build_parser.cache_info().currsize)\n"
                "for mmax in ('1', '2'):\n"
                "    cli.main(['lemma', '--mmax', mmax, '--out', sys.argv[1]])\n"
                "print(cli._build_parser.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")],
                              env=src_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]


class TestEntryPoint:
    def test_module_invocation(self, euclid_spec, tmp_path, src_env):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gaussvar.cli", "moments",
             "--spec", str(euclid_spec), "--mmax", "1", "--out", str(out)],
            env=src_env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert (out / "moments.csv").exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_exits_2(self, command, flag, euclid_spec, tmp_path):
        # the rest of the command line is valid, so only the unread flag can fail
        spec = ["--spec", str(euclid_spec)] if "--spec" in READS[command] else []
        with pytest.raises(SystemExit) as err:
            main([command, *spec, flag, VALUES[flag], "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"^  (--\w+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == set(READS[command]) | {"--out"}

    @pytest.mark.parametrize("command,flag,default", [
        ("moments", "--mmax", "6"), ("lemma", "--mmax", "60"),
        ("basis", "--degree", "6"), ("project", "--degree", "8"),
        ("project", "--alpha", "0.25"), ("lemma", "--k", "1.0"),
    ])
    def test_help_shows_own_default(self, command, flag, default, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split("options:")[1].split())
        shown = re.search(rf"{flag} \S+ [^(]*\(default: ([^)]*)\)", text)
        assert shown and shown.group(1) == default

    @pytest.mark.parametrize("command", ["moments", "equivalence", "basis"])
    def test_rule_flags_help_names_no_target(self, command, capsys):
        # these commands build no target rule, so --eps and --nodes say nothing of one
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split("options:")[1].split())
        for flag in ("--eps", "--nodes"):
            shown = re.search(rf"{flag} \S+ (.*?) \(default:", text)
            assert shown and "truncated rule" in shown.group(1)
            assert "target" not in shown.group(1) and "rung" not in shown.group(1)

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["moments", "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text and "--eps" in text


class TestBenchTracer:
    def test_spans_bind_and_record(self, euclid_spec, circle_spec, tmp_path):
        # the per-layer benchmark wraps public names by attribute and reads their
        # arguments, so a renamed or removed name breaks only traced bench runs
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        codes = []
        try:
            tracer.install()
            for i, chart in enumerate((circle_spec, euclid_spec)):
                for argv in (["basis", "--degree", "2"], ["project", "--degree", "2"],
                             ["moments", "--mmax", "2"], ["growth"], ["equivalence"]):
                    out = tmp_path / f"{argv[0]}{i}"
                    codes.append(main([*argv, "--spec", str(chart), "--out", str(out)]))
            codes.append(main(["lemma", "--mmax", "3", "--out", str(tmp_path / "lemma")]))
        finally:
            tracer.uninstall()
        assert codes == [EXIT_OK] * 11
        recorded = {s[0] for s in tracer.spans}
        assert {"orthobasis.gram_matrix", "orthobasis.project", "cli.write",
                "variety.load_chart"} <= recorded
        assert cli.load_chart is variety.load_chart  # perfbench/setup_probe.py calls it
