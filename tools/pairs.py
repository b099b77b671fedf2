"""Paired end-to-end bench runs of this checkout against another one.

Usage, from the repository root::

    python3 tools/pairs.py PARENT_CHECKOUT --workload study-mix --pairs 10
    python3 tools/pairs.py PARENT_CHECKOUT --workload W --pairs N --seed S --seconds T

PARENT_CHECKOUT is a directory holding another version of this repository,
such as one made with ``git archive``.  Each pair runs

    python3 <checkout>/perfbench/run.py --workload W --seed S --trace 0 [--seconds T]

once in PARENT_CHECKOUT and once in this checkout, each from its own root.
The order alternates -- parent first in odd pairs, this checkout first in
even ones -- so that a drift of the machine falls on both sides alike.
Only the last line of a run's output is read: the JSON object ``run.py``
prints, whose metrics under ``--trace 0`` are the end-to-end ones.

Printed: each pair's metrics on both sides, then per metric each side's
median and quartiles, the median of the per-pair differences (this minus
parent), the number of pairs in which this checkout was lower, and a
verdict:

- ``gain`` when this checkout is better in at least 9 of 10 pairs and the
  medians differ, its way, by more than the parent's interquartile range;
- ``REGRESSION`` when its median is worse than the parent's by more than
  the bound this checkout's ``BENCHMARK.json`` gives the metric under
  ``end_to_end`` (a fraction of the parent's median);
- ``none`` otherwise.

"Better" is the metric's ``better`` direction in ``BENCHMARK.json``
(lower for a metric it does not list, which gets no bound).  The exit code
is 1 when a run failed a check, and 2 when a run printed no result.  The
tool only reads and runs the bench; it is a before/after harness for a
change, not the bench's own statistic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """The JSON result of one bench run in ``checkout``; SystemExit(2) without one."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"pairs: no result from {checkout} (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        raise SystemExit(2) from None


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(xs: list[float]) -> str:
    """Median and quartiles of one side's runs."""
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"median {statistics.median(xs):.6g}, quartiles {q1:.6g} .. {q3:.6g}"


def end_to_end(checkout: Path) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric's (bound, better) from ``checkout``'s BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(parent: list[float], this: list[float], bound: float | None = None,
            better: str = "lower") -> str:
    """``gain``, ``REGRESSION`` or ``none`` for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (t - p) < 0 for p, t in zip(parent, this))
    worse = sign * (statistics.median(this) - statistics.median(parent))
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    if 10 * wins >= 9 * len(parent) and -worse > q3 - q1:
        return "gain"
    if bound is not None and worse > bound * abs(statistics.median(parent)):
        return "REGRESSION"
    return "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--workload", required=True, help="one workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run.py's)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    sides = {"parent": args.parent.resolve(), "this": ROOT}
    bounds = end_to_end(ROOT)
    rows, failed = [], 0
    for i in range(args.pairs):
        order = ("parent", "this") if i % 2 == 0 else ("this", "parent")
        pair = {}
        for side in order:
            result = run_bench(sides[side], args.workload, args.seed, args.seconds)
            failed += result["failed"]
            pair[side] = values(result)
        rows.append(pair)
        print(f"pair {i + 1}: " + " | ".join(
            side + " " + " ".join(f"{k}={v:.6g}" for k, v in pair[side].items())
            for side in ("parent", "this")), flush=True)
    for name in rows[0]["parent"]:
        for side in ("parent", "this"):
            print(f"{name} {side}: " + spread([p[side][name] for p in rows]))
        diffs = [p["this"][name] - p["parent"][name] for p in rows]
        median = statistics.median(diffs)
        base = statistics.median(p["parent"][name] for p in rows)
        rel = f" ({100.0 * median / base:+.1f}% of the parent's median)" if base else ""
        lower = sum(d < 0 for d in diffs)
        print(f"{name}: median difference {median:+.6g}{rel}, "
              f"this lower in {lower} of {len(rows)} pairs")
        bound, better = bounds.get(name, (None, "lower"))
        print(f"{name} verdict: " + verdict([p["parent"][name] for p in rows],
                                            [p["this"][name] for p in rows], bound, better))
    if failed:
        print(f"pairs: {failed} failed studies across the runs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
