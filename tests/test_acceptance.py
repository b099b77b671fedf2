"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import json
import math

import numpy as np

from gaussvar.approxlemma import cm_brute, cm_closed_form, default_error_grid, uniform_error
from gaussvar.cli import EXIT_OK, main
from gaussvar.orthobasis import (
    classic_recovery,
    gram_matrix,
    orthonormalize,
    project,
    weighted_equivalence_check,
)
from gaussvar.polyring import MultiPoly, squared_norms
from gaussvar.quadrature import build_rule, gaussian_moment, integrability_scan, integrate
from gaussvar.variety import estimate_growth


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_moment_oracle(euclid1, euclid1_rule):
    ok = True
    for m in range(7):
        value = gaussian_moment(euclid1, m, euclid1_rule)
        exact = math.gamma((m + 1) / 2.0)
        ok &= abs(value - exact) <= 1e-8 * exact
    _report(1, "moments match Gamma((m+1)/2) on the line", ok)


def test_02_cylinder_mass_and_tensor_split(cylinder, cylinder_rule):
    exact = 2.0 * math.pi * math.sqrt(math.pi) * math.exp(-1.0)
    mass = float(integrate(cylinder, 1.0, cylinder_rule))
    ok = abs(mass - exact) <= 1e-8 * exact
    # restricted degree-1 monomials are {1, cos u2, sin u2, u1}
    G = gram_matrix(cylinder, 1, cylinder_rule).gram
    off = G - np.diag(np.diag(G))
    ok &= np.max(np.abs(off)) <= 1e-8
    _report(2, "cylinder mass 2*pi*sqrt(pi)/e and diagonal Gram", ok)


def test_03_hermite_recovery():
    report = classic_recovery("hermite", degree_cap=6)
    ok = report.matched and report.max_rel_coeff_err <= 1e-6
    _report(3, "Hermite recovery to 1e-6 per coefficient", ok)


def test_04_legendre_recovery():
    report = classic_recovery("legendre", degree_cap=6)
    ok = report.matched and report.max_rel_coeff_err <= 1e-6
    _report(4, "Legendre recovery to 1e-6 per coefficient", ok)


def test_05_lemma_cross_check():
    ok = True
    for k in (0.5, 1.0, 2.0, 4.0):
        for m in range(1, 41):
            a, b = cm_closed_form(k, m), cm_brute(k, m)
            ok &= abs(a - b) <= 1e-9 * a
        ok &= min(cm_closed_form(k, m) for m in range(1, 201)) < 1e-8
    ok &= abs(cm_closed_form(1.0, 1) - 1.0) <= 1e-10
    ok &= abs(cm_brute(1.0, 1) - 1.0) <= 1e-10
    _report(5, "closed-form vs brute-force sup bound", ok)


def test_06_uniform_convergence():
    k = (1.0, 0.0)
    grid = default_error_grid(k)
    sups = [uniform_error(k, m, grid) for m in range(1, 41)]
    ok = all(
        sup <= cm_closed_form(1.0, m) * (1.0 + 1e-6)
        for m, sup in zip(range(1, 41), sups)
    )
    ok &= min(sups) < 1e-9
    _report(6, "weighted truncation error within the bound", ok)


def test_07_integrability_boundary(euclid1, cylinder):
    ok = True
    for chart in (euclid1, cylinder):
        for alpha in (0.1, 0.25, 0.4):
            scan = integrability_scan(chart, alpha)
            ok &= (not scan.divergent) and scan.final_rel_change < 1e-6
        ok &= integrability_scan(chart, 0.6).divergent
    _report(7, "alpha < 1/2 integrability boundary", ok)


def test_08_density_witness(cylinder, cylinder_rule, graph_x2, graph_x2_rule):
    ok = True
    for chart, rule, need_final in (
        (cylinder, cylinder_rule, True),
        (graph_x2, graph_x2_rule, False),
    ):
        f = lambda X: np.exp(0.25 * squared_norms(X))
        gb = orthonormalize(gram_matrix(chart, 8, rule))
        rels = [rep.rel_residual for rep in project(gb, f, rule)[2::2]]
        ok &= all(b < a for a, b in zip(rels, rels[1:]))
        if need_final:
            ok &= rels[-1] < 0.1
    _report(8, "projection residuals decay for exp(r^2/4)", ok)


def test_09_weighted_equivalence(euclid1, euclid1_rule, cylinder, cylinder_rule,
                                 graph_x2, graph_x2_rule):
    def rel_gap(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    ok = True
    rhs_rule = build_rule(euclid1, euclid1_rule.truncation_radius, 80)
    [(lhs, rhs)] = weighted_equivalence_check(
        euclid1, [(lambda X: X[:, 0] ** 2, MultiPoly.zero(1))], euclid1_rule, rhs_rule
    )
    exact = 3.0 * math.sqrt(math.pi) / 4.0
    ok &= rel_gap(lhs, rhs) <= 1e-8
    ok &= abs(lhs - exact) <= 1e-8 * exact and abs(rhs - exact) <= 1e-8 * exact

    rhs_rule = build_rule(cylinder, cylinder_rule.truncation_radius, 80)
    [(lhs, rhs)] = weighted_equivalence_check(
        cylinder, [(lambda X: np.exp(0.25 * squared_norms(X)), MultiPoly.constant(3, 1.0))],
        cylinder_rule, rhs_rule,
    )
    ok &= rel_gap(lhs, rhs) <= 1e-8

    rhs_rule = build_rule(graph_x2, graph_x2_rule.truncation_radius, 80)
    [(lhs, rhs)] = weighted_equivalence_check(
        graph_x2, [(lambda X: np.exp(0.25 * squared_norms(X)), MultiPoly.zero(2))],
        graph_x2_rule, rhs_rule,
    )
    ok &= rel_gap(lhs, rhs) <= 1e-8
    _report(9, "both sides of the weighted identity agree", ok)


def test_10_rank_detection(circle, circle_rule):
    gb0 = gram_matrix(circle, 2, circle_rule)
    ok = True
    for tol in (1e-10, 3e-10, 1e-9, 3e-9, 1e-8):
        gb = orthonormalize(gb0, rank_tol=tol)
        ok &= gb.rank == 5 and len(gb.monomials) == 6
    _report(10, "circle Gram rank is 5 of 6 across rank_tol window", ok)


def test_11_growth_estimates(euclid1, cylinder, graph_x2, modgraph_z2):
    g_line = estimate_growth(euclid1, np.linspace(2.0, 10.0, 9))
    ok = abs(g_line.slope - 1.0) <= 0.05
    g_par = estimate_growth(graph_x2, np.geomspace(10.0, 100.0, 8))
    ok &= 0.8 <= g_par.slope <= 1.1
    for chart in (euclid1, cylinder, graph_x2, modgraph_z2):
        g = estimate_growth(chart, np.linspace(2.0, 10.0, 9))
        ok &= bool(np.all(np.diff(g.volumes) >= 0))
    _report(11, "log-log volume slopes and monotone volumes", ok)


def test_12_cli_determinism(tmp_path):
    spec = tmp_path / "cylinder.json"
    spec.write_text(json.dumps({"kind": "revolution", "f": "1", "h": "1*x1^1"}))
    jobs = [
        ["moments", "--spec", str(spec), "--mmax", "6"],
        ["basis", "--spec", str(spec), "--degree", "2"],
        ["lemma", "--k", "0.5,1.0,2.0", "--mmax", "40"],
    ]
    ok = True
    for i, job in enumerate(jobs):
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        ok &= main(job + ["--out", str(out_a)]) == EXIT_OK
        ok &= main(job + ["--out", str(out_b)]) == EXIT_OK
        names = sorted(p.name for p in out_a.iterdir())
        ok &= names == sorted(p.name for p in out_b.iterdir()) and bool(names)
        for name in names:
            ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _report(12, "repeated CLI runs are byte-identical", ok)
