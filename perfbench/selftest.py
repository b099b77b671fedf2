"""Self-check of the benchmark's failure paths.

Usage, from the repository root: ``python3 perfbench/selftest.py``.
Exits 0 when

- a study whose rule construction raises ``QuadratureError`` is counted
  as failed in a traced pass, and that pass still gives its per-layer
  figures;
- ``check.py`` accepts the seed-0 outputs of every command that has a
  reference, and rejects them once any one referenced column of the
  reference is perturbed beyond its tolerance.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gaussvar import quadrature  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


class InlineChecker:
    """Stands in for the checker pool: runs the checks in this process."""

    def starmap(self, fn, jobs):
        return list(itertools.starmap(fn, jobs))


def make_runner(workload: str, sids: set, work: Path) -> worker.Runner:
    plan = workloads.make_plan(workload, 0)
    studies = [s for s in run.write_plan(plan, work) if s["sid"] in sids]
    doc = {"studies": studies, "scales": plan.scales,
           "reference": {s["key"]: REFERENCE[s["key"]] for s in studies
                         if s["key"] in REFERENCE},
           "oracles": oracles.study_oracles(plan)}
    return worker.Runner(doc, InlineChecker())


def raising_rule_is_a_failed_study(work: Path) -> None:
    runner = make_runner("study-mix", {"moments:cylinder", "lemma"}, work)
    original = quadrature.build_rule

    def broken(*args, **kwargs):
        raise quadrature.QuadratureError("injected rule failure")

    holders = [m for n, m in sys.modules.items()
               if n == "gaussvar" or n.startswith("gaussvar.")]
    patched = [(m, k) for m in holders for k, v in list(vars(m).items()) if v is original]
    for m, k in patched:
        setattr(m, k, broken)
    try:
        runner.run_pass("t0", traced=True)
    finally:
        for m, k in patched:
            setattr(m, k, original)
    fig = runner.layers[-1]
    assert fig["cli.studies"] == 2 and fig["cli.studies_failed"] == 1, fig
    assert [f["study"] for f in runner.failures] == ["moments:cylinder"], runner.failures
    assert fig["quadrature.rule_nodes"] == 0, fig
    print("ok: a study whose build_rule raises is one failed study in a traced pass")


def _perturb(value):
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        i = next(i for i, v in enumerate(value)
                 if isinstance(v, str) or math.isfinite(v))
        return value[:i] + [_perturb(value[i])] + value[i + 1:]
    return value + 1e-3 * max(abs(value), 1.0)


def checks_reject_perturbed_references(work: Path) -> None:
    runner = make_runner("study-mix", {s.sid for s in workloads.make_plan(
        "study-mix", 0).studies}, work / "mix")
    runner.studies += make_runner("surface-sweep", {"project:cylinder"},
                                  work / "surface").studies
    runner.plan["reference"].update({key: REFERENCE[key] for *_, key in runner.studies
                                     if key in REFERENCE})
    runner.run_pass("p0", traced=False)
    assert not runner.failures, runner.failures
    commands = set()
    for study, _, out, key in runner.studies:
        if study.command not in check.TOLERANCE:
            continue
        cols = check.columns(study, out)
        check.compare_reference(study, cols, REFERENCE[key])
        for col in check.TOLERANCE[study.command]:
            bad = copy.deepcopy(REFERENCE[key])
            bad[col] = _perturb(bad[col])
            try:
                check.compare_reference(study, cols, bad)
            except check.CheckError:
                continue
            raise AssertionError(f"{study.sid}: perturbed {col} passed the check")
        commands.add(study.command)
    assert commands == set(check.TOLERANCE), commands
    print(f"ok: checks reject a perturbed reference in every column of {sorted(commands)}")


def main() -> None:
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        raising_rule_is_a_failed_study(work / "raise")
        checks_reject_perturbed_references(work / "checks")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
