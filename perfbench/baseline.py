"""Record ``baseline.json``: seed-0 figures of every workload, untraced and traced.

Usage, from the repository root: ``python3 perfbench/baseline.py``.
Besides the figures the file holds each workload's reason, the layer ->
end-to-end map (which end-to-end metric each per-layer metric should
move, on which workload) and the machine facts of the recording.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

RECORD = "   pass_s.record = "

# per-layer metric -> (end-to-end metrics it should move, workloads)
LAYER_MAP = {
    "polyring.eval_s": ("pass_s", "study-mix surface-sweep"),
    "polyring.eval_calls": ("pass_s", "study-mix surface-sweep"),
    "polyring.eval_term_points": ("pass_s", "study-mix surface-sweep"),
    "polyring.monomials_s": ("pass_s", "surface-sweep"),
    "variety.load_chart_s": ("setup_s pass_s", "study-mix"),
    "variety.chart_field_s": ("pass_s", "study-mix euclid3-sweep"),
    "variety.chart_field_calls": ("pass_s", "study-mix euclid3-sweep"),
    "variety.chart_field_points": ("pass_s", "study-mix euclid3-sweep"),
    "variety.estimate_growth_s": ("pass_s peak_rss_mb", "study-mix"),
    "variety.solve_param_bound_s": ("pass_s peak_rss_mb", "study-mix"),
    "variety.solve_param_bound_calls": ("pass_s peak_rss_mb", "study-mix"),
    "quadrature.build_rule_s": ("pass_s peak_rss_mb", "euclid3-sweep study-mix"),
    "quadrature.rule_nodes": ("pass_s peak_rss_mb", "euclid3-sweep study-mix"),
    "quadrature.choose_truncation_s": ("pass_s", "study-mix"),
    "quadrature.moment_table_s": ("pass_s", "study-mix"),
    "quadrature.integrate_s": ("pass_s", "study-mix"),
    "quadrature.integrate_calls": ("pass_s", "study-mix"),
    "quadrature.integrate_points": ("pass_s", "study-mix"),
    "orthobasis.gram_matrix_s": ("pass_s peak_rss_mb", "euclid3-sweep surface-sweep"),
    "orthobasis.gram_cells": ("pass_s peak_rss_mb", "euclid3-sweep surface-sweep"),
    "orthobasis.orthonormalize_s": ("pass_s", "surface-sweep"),
    "orthobasis.factorizations": ("pass_s", "surface-sweep"),
    "orthobasis.kept_ratio": ("none; a change means rank detection changed", "all"),
    "orthobasis.project_s": ("pass_s peak_rss_mb", "euclid3-sweep"),
    "orthobasis.project_cells": ("pass_s peak_rss_mb", "euclid3-sweep"),
    "orthobasis.equivalence_s": ("pass_s", "study-mix"),
    "orthobasis.ortho_defect": ("none; quality readout, not gated", "all"),
    "approxlemma.cm_table_s": ("pass_s", "study-mix"),
    "approxlemma.records": ("pass_s", "study-mix"),
    "cli.main_self_s": ("pass_s", "study-mix"),
    "cli.write_s": ("pass_s", "surface-sweep"),
    "cli.bytes_written": ("pass_s", "surface-sweep"),
    "cli.studies": ("error_rate", "all"),
    "cli.studies_failed": ("error_rate", "all"),
    "trace.overhead_s": ("none; the cost of tracing", "all"),
}


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False)
    print(proc.stdout, end="", flush=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    out = {k: m["value"] for k, m in res["metrics"].items()} | {
        "attempted": res["attempted"], "failed": res["failed"]}
    if not trace:
        record = next(line for line in lines if line.startswith(RECORD))
        out["pass_s.record"] = json.loads(record[len(RECORD):])
    return out


def main() -> None:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    doc = {
        "machine": run.machine_facts() | {"git_sha": sha},
        "seed": 0,
        "run_seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
        "workloads": {
            name: {"why": workloads.WHY[name],
                   "end_to_end": _run(name, 0), "per_layer": _run(name, 1)}
            for name in ("euclid3-sweep", "surface-sweep", "study-mix")
        },
        "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()},
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
