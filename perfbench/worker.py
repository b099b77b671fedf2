"""Run one workload's passes in a process of its own and report them.

Usage: ``python3 perfbench/worker.py PLAN.json RESULT.json`` with ``src``
on ``PYTHONPATH``; ``run.py`` writes the plan and reads the result.

Every study runs in process through ``gaussvar.cli.main``, one after
another.  A warm-up pass comes first, then measured passes until the
plan's seconds are spent (at least ``min_passes``).  Set-up probes
(``setup_probe.py``, each a fresh interpreter) run in batches between
the passes, so that they sample the same stretch of time as the passes.
With tracing on, each untraced pass is followed by a traced one; the
untraced passes give ``pass_s`` and the traced ones the per-layer
figures, and no set-up is probed.  Outputs are
checked after each pass, outside the timed region, by a checker process of
its own, so that this process's peak memory is the program's alone.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gaussvar.cli
from gaussvar import orthobasis, quadrature
from spans import Tracer
from workloads import Study

TIMED_LAYERS = (
    "polyring.eval", "polyring.monomials", "variety.load_chart",
    "variety.chart_field", "variety.estimate_growth", "variety.solve_param_bound",
    "quadrature.build_rule", "quadrature.choose_truncation",
    "quadrature.moment_table", "quadrature.integrate", "orthobasis.gram_matrix",
    "orthobasis.orthonormalize", "orthobasis.project", "orthobasis.equivalence",
    "approxlemma.cm_table", "cli.write",
)
CALLS = {
    "polyring.eval_calls": "polyring.eval",
    "variety.chart_field_calls": "variety.chart_field",
    "variety.solve_param_bound_calls": "variety.solve_param_bound",
    "quadrature.integrate_calls": "quadrature.integrate",
    "orthobasis.factorizations": "orthobasis.orthonormalize",
}
SUMS = {
    "polyring.eval_term_points": ("polyring.eval", "term_points"),
    "variety.chart_field_points": ("variety.chart_field", "points"),
    "quadrature.rule_nodes": ("quadrature.build_rule", "nodes"),
    "quadrature.integrate_points": ("quadrature.integrate", "points"),
    "orthobasis.gram_cells": ("orthobasis.gram_matrix", "cells"),
    "orthobasis.project_cells": ("orthobasis.project", "cells"),
    "approxlemma.records": ("approxlemma.cm_table", "records"),
    "cli.bytes_written": ("cli.write", "bytes"),
}
DEFECT_CHUNK = 32768   # nodes per basis_inner_products call
HERE = Path(__file__).resolve().parent


def ortho_defect(gb, rule) -> float:
    """max |B^T W B - I| on a rule with 16 more nodes per dimension.

    The finer rule is split along its first dimension so that no more
    than DEFECT_CHUNK nodes are evaluated at once; the Gram sums add.
    """
    fine = quadrature.build_rule(gb.chart, rule.truncation_radius,
                                 [n + 16 for n in rule.nodes_per_dim])
    first, rest = fine.dims[0], fine.dims[1:]
    step = max(1, DEFECT_CHUNK // math.prod(d.nodes.size for d in rest))
    M = 0.0
    for lo in range(0, first.nodes.size, step):
        part = quadrature.DimRule(first.kind, first.lo, first.hi,
                                  first.nodes[lo:lo + step], first.weights[lo:lo + step])
        M = M + orthobasis.basis_inner_products(
            gb, quadrature.QuadRule((part,) + rest, fine.truncation_radius))
    return float(np.max(np.abs(M - np.eye(gb.rank))))


class Runner:
    def __init__(self, plan: dict, checker) -> None:
        self.plan = plan
        self.checker = checker
        self.studies = [(Study(s["sid"], s["command"], s["chart"], tuple(s["flags"])),
                         s["argv"], Path(s["out"]), s["key"]) for s in plan["studies"]]
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[dict] = []
        self.layers: list[dict] = []
        self._defects: dict = {}

    def run_pass(self, label: str, traced: bool) -> float:
        for _, _, out, _ in self.studies:
            shutil.rmtree(out, ignore_errors=True)
        first_span = len(self.tracer.spans)
        gc.collect()
        if traced:
            self.tracer.install()
        outcomes = []
        t0 = time.perf_counter()
        try:
            for study, argv, _, _ in self.studies:
                self.tracer.study = f"{label}:{study.sid}"
                try:
                    outcomes.append(gaussvar.cli.main(argv))
                except Exception as exc:  # a crash is one failed study, not a dead run
                    outcomes.append(f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - t0
            self.tracer.uninstall()
        jobs = [(study, self.plan["scales"], out, self.plan["reference"].get(key),
                 self.plan["oracles"].get(study.sid))
                for (study, _, out, key), rc in zip(self.studies, outcomes) if rc == 0]
        reasons = iter(self.checker.starmap(check.check_study, jobs))
        failed = 0
        for (study, _, out, key), rc in zip(self.studies, outcomes):
            self.attempted += 1
            if rc != 0:
                reason = f"exit {rc}" if isinstance(rc, int) else rc
            else:
                reason = next(reasons)
            if reason is not None:
                failed += 1
                self.failures.append({"pass": label, "study": study.sid, "reason": reason})
        if traced:
            self.layers.append(self._layer_figures(first_span, failed))
        return elapsed

    def _layer_figures(self, first: int, failed: int) -> dict:
        spans = self.tracer.spans[first:]
        own = self.tracer.self_times()[first:]
        fig = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
        fig["cli.main_self_s"] = 0.0
        fig.update({k: 0 for k in CALLS})
        fig.update({k: 0 for k in SUMS})
        rank = monomials = 0
        defect = 0.0
        rules: dict = {}
        for span, t in zip(spans, own):
            name, counts = span[0], span[5]
            key = "cli.main_self_s" if name == "cli.main" else f"{name}_s"
            fig[key] += t
            for metric, layer in CALLS.items():
                fig[metric] += layer == name
            if counts is None:  # no counts taken, or the call raised
                continue
            for metric, (layer, field) in SUMS.items():
                if layer == name:
                    fig[metric] += counts[field]
            if name == "quadrature.build_rule":
                rules[span[4]] = counts.pop("rule")
            if name == "orthobasis.orthonormalize":
                gb = counts.pop("basis")
                rank += gb.rank
                monomials += len(gb.monomials)
                if span[4] in rules:
                    defect = max(defect, self._defect(gb, rules[span[4]]))
        fig["orthobasis.kept_ratio"] = rank / monomials if monomials else 0.0
        fig["orthobasis.ortho_defect"] = defect
        fig["cli.studies"] = len(self.studies)
        fig["cli.studies_failed"] = failed
        return fig

    def _defect(self, gb, rule) -> float:
        key = (gb.chart_id, gb.degree_cap, gb.weight, rule.truncation_radius,
               rule.nodes_per_dim)
        if key not in self._defects:
            self._defects[key] = ortho_defect(gb, rule)
        return self._defects[key]


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    with multiprocessing.get_context("spawn").Pool(1) as checker:
        run(plan, checker, result_path)


def probe_setup(specs: list[str]) -> float:
    """Seconds a fresh interpreter spends importing the CLI and loading specs."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *specs],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run(plan: dict, checker, result_path: str) -> None:
    runner = Runner(plan, checker)
    quick, traced, seconds = plan["quick"], plan["trace"], plan["seconds"]
    want_probes = 0 if traced else plan["setup_probes"]
    warmup = None if quick else runner.run_pass("warmup", traced=False)
    setup, batch = [], 1
    if want_probes and not quick:
        # size the batches so that the probes spread over the whole run
        t0 = time.perf_counter()
        setup.append(probe_setup(plan["probe_specs"]))
        probe_wall = time.perf_counter() - t0
        batch = math.ceil(want_probes * warmup
                          / max(seconds - want_probes * probe_wall, seconds / 2))
    passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(f"p{len(passes)}", traced=False))
        if traced:
            traced_passes.append(runner.run_pass(f"t{len(traced_passes)}", traced=True))
        for _ in range(min(batch, want_probes - len(setup))):
            setup.append(probe_setup(plan["probe_specs"]))
        if quick or (len(passes) >= plan["min_passes"]
                     and time.perf_counter() - start >= seconds):
            break
    while len(setup) < want_probes:
        setup.append(probe_setup(plan["probe_specs"]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "warmup_s": warmup, "passes": passes, "traced_passes": traced_passes,
        "setup": setup, "peak_rss_mb": rss_mb, "attempted": runner.attempted,
        "failures": runner.failures,
    }
    if traced:
        layers = {k: statistics.median(f[k] for f in runner.layers)
                  for k in runner.layers[0]}
        layers["trace.overhead_s"] = (statistics.median(traced_passes)
                                      - statistics.median(passes))
        result["layers"] = layers
        runner.tracer.dump(plan["trace_path"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
