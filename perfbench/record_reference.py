"""Record ``reference.json``: the checked values of every study a seed can produce.

Usage, from the repository root: ``python3 perfbench/record_reference.py``.
Runs each distinct study (command, spec and flags) of every workload over
every scale level once through ``gaussvar.cli.main`` and stores the values
``check.py`` compares against.  Basis studies need no entry: their checks
are oracles and invariants only.  Re-record only on purpose: the file pins
the outputs of the commit it was recorded at.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gaussvar.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    todo = {}
    for scales in workloads.all_scale_choices():
        specs = workloads.chart_specs(scales)
        for name in workloads.WHY:
            for st in workloads.study_list(name, scales):
                if st.command != "basis":
                    todo.setdefault(st.key(specs), (st, specs))
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    spec_dir = work / "specs"
    spec_dir.mkdir(parents=True)
    reference = {}
    for n, key in enumerate(sorted(todo)):
        st, specs = todo[key]
        argv = [st.command]
        if st.chart:
            path = spec_dir / f"{n}.json"
            path.write_text(json.dumps(specs[st.chart]))
            argv += ["--spec", str(path)]
        out = work / "out" / str(n)
        rc = gaussvar.cli.main(argv + list(st.flags) + ["--out", str(out)])
        if rc != 0:
            raise SystemExit(f"study failed while recording: {key} (exit {rc})")
        reference[key] = check.reference_values(st, out)
        shutil.rmtree(out)
        print(f"[{n + 1}/{len(todo)}] {key}", flush=True)
    shutil.rmtree(work)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
