"""Benchmark of the ``gaussvar`` CLI studies: one command, every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload study-mix --seed 0 --trace 0
    python3 perfbench/run.py --workload all --quick          # smoke test

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--workload`` takes a name from ``BENCHMARK.json``, a comma-separated
list, or ``all``.  The run builds nothing: it imports the package from
``src/`` of the checkout it sits in.  Per workload it

1. generates the variety specs and study list from ``--seed``
   (``workloads.py``) into ``.perfbench/`` under the checkout;
2. runs the passes in a separate process (``worker.py``): a closed loop,
   one caller, studies one after another through ``gaussvar.cli.main``.
   ``pass_s`` is the median pass time, ``peak_rss_mb`` that process's
   peak resident memory (MiB);
3. times set-up (``setup_s``) between the passes: a fresh interpreter
   imports ``gaussvar.cli`` and loads every spec, SETUP_PROBES times,
   median;
4. checks every study's CSV files after every pass (``check.py``).

With ``--trace 1`` the worker also runs traced passes and the metrics
are the per-layer figures; spans go to ``.perfbench/traces/``.  The last
line printed is one JSON object; the exit code is 1 when any check
failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 41      # spread over the run, so that drift averages out
MIN_PASSES = 3
DEADLINE_S = 170.0      # one workload's run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def blas_threads() -> int | None:
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "blas_threads": blas_threads(), "python": sys.version.split()[0]}


def top_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten values beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def pass_record(passes: list[float]) -> dict:
    """Pass count, median and, with enough passes, the top percentile."""
    record = {"count": len(passes), "median_s": statistics.median(passes)}
    top = top_percentile(passes)
    if top:
        record[f"p{top[0]}_s"] = top[1]
    return record


def write_plan(plan: workloads.Plan, work: Path) -> list[dict]:
    spec_dir = work / "specs"
    spec_dir.mkdir(parents=True)
    paths = {}
    for name, spec in plan.specs.items():
        paths[name] = spec_dir / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    studies = []
    for i, st in enumerate(plan.studies):
        out = work / "out" / f"{i:02d}-{st.sid.replace(':', '-')}"
        argv = [st.command] + (["--spec", str(paths[st.chart])] if st.chart else [])
        studies.append({**asdict(st), "argv": argv + list(st.flags) + ["--out", str(out)],
                        "out": str(out), "key": st.key(plan.specs)})
    return studies


def run_workload(name: str, args, deadline: float) -> dict:
    import oracles
    plan = workloads.make_plan(name, args.seed)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        studies = write_plan(plan, work)
        reference = json.loads((HERE / "reference.json").read_text())
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        plan_doc = {
            "workload": name, "seed": args.seed, "scales": plan.scales,
            "studies": studies, "seconds": args.seconds, "trace": bool(args.trace),
            "quick": args.quick, "min_passes": MIN_PASSES,
            "setup_probes": 1 if args.quick else SETUP_PROBES,
            "probe_specs": sorted(str(work / "specs" / f"{c}.json")
                                  for c in {s["chart"] for s in studies} if c),
            "reference": {s["key"]: reference[s["key"]] for s in studies
                          if s["key"] in reference},
            "oracles": oracles.study_oracles(plan),
            "trace_path": str(trace_dir / f"{name}-seed{args.seed}.json"),
        }
        (work / "plan.json").write_text(json.dumps(plan_doc))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            env=_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["plan"] = plan
    return result


def report(name: str, res: dict, traced: bool, units: dict) -> tuple[dict, list[str]]:
    plan = res["plan"]
    passes = res["passes"]
    failed = len(res["failures"])
    lines = [f"== {name} seed={plan.seed} scales="
             + ",".join(f"{k}={workloads.fmt(v)}" for k, v in plan.scales.items()),
             "   order: " + " ".join(s.sid for s in plan.studies)]
    if traced:
        values = res["layers"]
    else:
        values = {"setup_s": statistics.median(res["setup"]),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        lines.append(f"   {k} = {m['value']:.6g} {m['unit']}")
    if not traced:
        lines.append(f"   setup_s.count = {len(res['setup'])}")
    lines.append("   passes = " + " ".join(f"{t:.4g}" for t in passes))
    lines.append("   pass_s.record = " + json.dumps(pass_record(passes)))
    lines.append(f"   error_rate = {failed}/{res['attempted']} failed/attempted")
    for f in res["failures"]:
        lines.append(f"   FAILED {f['study']} in pass {f['pass']}: {f['reason']}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {sorted(workloads.WHY)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up probe and one pass, no warm-up")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaussvar" / "cli.py").is_file():
        _fail(f"no gaussvar sources under {ROOT / 'src'}; run from a checkout")
    names = sorted(workloads.WHY) if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in workloads.WHY:
            _fail(f"unknown workload {name!r}; choose from {sorted(workloads.WHY)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("machine: " + json.dumps(machine_facts()))
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            res = run_workload(name, args, time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            _fail(f"{name}: {exc}")
        metrics, lines = report(name, res, bool(args.trace), units)
        print("\n".join(lines), flush=True)
        attempted += res["attempted"]
        failed += len(res["failures"])
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
