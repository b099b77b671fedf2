"""The benchmark under ``perfbench/`` reaches into ``src/`` by name.

A rename in the package that breaks the tracer or the bench's own
failure-path checks fails here, not only when the benchmark runs.  The
projection studies at the extreme scale levels a seed can draw are also
run here and checked as the benchmark checks them.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussvar import (
    chart_euclidean, cli, gauss_rule, gram_matrix, orthonormalize,
    truncated_rule,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_bench_modules(*names):
    """The named ``perfbench/`` modules, each registered in sys.modules while
    they load (dataclasses and ``check.py``'s imports look them up there)."""
    modules = []
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            modules.append(module)
    return modules


@pytest.fixture(scope="module")
def bench():
    """perfbench's check and workloads modules, and its recorded reference."""
    workloads, check = load_bench_modules("workloads", "check")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    return check, workloads, reference


def test_traced_names_resolve():
    (spans,) = load_bench_modules("spans")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans._targets() if not hasattr(owner, attr)]
    assert not missing


def test_ortho_defect_on_cylinder_basis(cylinder):
    # the bench's one positional QuadRule/DimRule construction; no traced pass reaches it
    *_, worker = load_bench_modules("workloads", "check", "spans", "worker")
    _, rule = truncated_rule(cylinder, 8)
    gb = orthonormalize(gram_matrix(cylinder, 4, rule))
    assert worker.ortho_defect(gb, rule) <= 1e-10


def test_ortho_defect_on_hermite_basis():
    # a euclid3 basis from the exact Gram rule, checked as the bench checks a
    # traced truncated rule: on that rule with 16 more nodes per dimension
    *_, worker = load_bench_modules("workloads", "check", "spans", "worker")
    chart = chart_euclidean(3)
    _, rule = truncated_rule(chart, 8)
    gb = orthonormalize(gram_matrix(chart, 4, gauss_rule(chart, 4)))
    assert worker.ortho_defect(gb, rule) <= 1e-12


def test_ortho_defect_on_gauss_rule_basis(cylinder):
    # a cylinder basis from the exact Gram rule, checked as the bench checks a
    # traced truncated rule: on that rule with 16 more nodes per dimension
    *_, worker = load_bench_modules("workloads", "check", "spans", "worker")
    _, rule = truncated_rule(cylinder, 8)
    gb = orthonormalize(gram_matrix(cylinder, 4, gauss_rule(cylinder, 4)))
    assert worker.ortho_defect(gb, rule) <= 1e-10


def test_selftest_passes(src_env):
    # writes only under the git-ignored .perfbench/ of the repository
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          env=src_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


(WORKLOADS,) = load_bench_modules("workloads")

# (chart, coefficient scale, alpha): the lowest and highest levels of each draw, and
# every alpha for euclid3, whose target rule a refinement check chooses per alpha.
# reference.json's euclid3 f_norm comes from the truncated rule, 7.4e-10 off the
# closed form at alpha 0.375, where check.py allows 1e-9.
EXTREME_PROJECTIONS = [("euclid3", 1.0, alpha) for alpha in WORKLOADS.ALPHA_LEVELS] + [
    (chart, scale, alpha) for chart in ("cylinder", "modgraph")
    for scale in (0.5, 2.0) for alpha in (0.125, 0.375)]


@pytest.mark.parametrize("chart,scale,alpha", EXTREME_PROJECTIONS)
def test_projection_at_extreme_levels_passes_check(bench, chart, scale, alpha, tmp_path):
    check, workloads, reference = bench
    scales = {**workloads.draw_scales(0), "cylinder_radius": scale,
              "modulus_coeff": scale, "alpha": alpha}
    specs = workloads.chart_specs(scales)
    workload = "euclid3-sweep" if chart == "euclid3" else "surface-sweep"
    study = next(st for st in workloads.study_list(workload, scales)
                 if st.sid == f"project:{chart}")
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(specs[chart]))
    argv = [study.command, "--spec", str(spec), *study.flags, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert check.check_study(study, scales, out, reference[study.key(specs)], None) is None


# basis on the exact gauss_rule at every scale level a seed can draw, and on the circle
BASIS_STUDIES = [(chart, scale) for chart in ("cylinder", "modgraph")
                 for scale in WORKLOADS.SCALE_LEVELS] + [("circle", 1.0)]


@pytest.mark.parametrize("chart,scale", BASIS_STUDIES)
def test_basis_at_every_scale_level_passes_check(bench, chart, scale, tmp_path):
    check, workloads, _ = bench
    (oracles,) = load_bench_modules("oracles")
    scales = {**workloads.draw_scales(0), "cylinder_radius": scale, "modulus_coeff": scale}
    specs = workloads.chart_specs(scales)
    workload = "study-mix" if chart == "circle" else "surface-sweep"
    study = next(st for st in workloads.study_list(workload, scales)
                 if st.sid == f"basis:{chart}")
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(specs[chart]))
    argv = [study.command, "--spec", str(spec), *study.flags, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    degree = int(study.flags[study.flags.index("--degree") + 1])
    oracle = ({"radial": oracles.paraboloid_radial(scale, 4 * degree)}
              if chart == "modgraph" else None)
    # check_study requires the rank (D + 1)^2, or 2D + 1 on the circle
    assert check.check_study(study, scales, out, None, oracle) is None
    rank = 1 + max(int(line.split(",")[0])
                   for line in (out / "basis.csv").read_text().splitlines()[1:])
    assert rank == (2 * degree + 1 if chart == "circle" else (degree + 1) ** 2)
    # and gram.csv is exact: within 1e-13 sqrt(G_ii G_jj) of the closed form
    G = np.loadtxt(out / "gram.csv", delimiter=",", skiprows=1)[:, 2]
    radial = tuple(sorted(oracle["radial"].items())) if oracle else ()
    ref = check.oracle_gram(chart, degree, scale, radial)
    d = np.sqrt(np.diag(ref))
    assert np.max(np.abs(G.reshape(ref.shape) - ref) / np.outer(d, d)) <= 1e-13
