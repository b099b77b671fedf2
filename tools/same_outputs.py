"""List the CSV files the bench studies write differently in another checkout.

Usage, from the repository root::

    python3 tools/same_outputs.py PARENT_CHECKOUT
    python3 tools/same_outputs.py REVISION

PARENT_CHECKOUT is a directory holding ``src/gaussvar``; a REVISION of this
repository, such as ``HEAD``, is exported with ``git archive`` into the
temporary directory and compared as a checkout.

Every study of every workload in ``perfbench/workloads.py``, at seeds 0
and 3, runs through ``gaussvar.cli.main`` once per checkout: in a child
interpreter that imports ``gaussvar`` from that checkout's ``src/``, with
the spec files written once for both.  Every CSV either side writes is
compared byte for byte.  The differing files are listed, and the exit code
is 1 when there is one, or when a study's exit code differs.  Under a
differing file with the same shape on both sides (rows, and cells per row),
each numeric column gets one line: its largest absolute difference, and its
largest difference relative to a scale taken from the parent's file.  The
columns in ``SCALES`` are scaled per row by the size of their entry --
sqrt(G_ii G_jj) for a Gram entry, the largest |coefficient| of its basis
element for a basis coefficient, f_norm for a residual norm, and 1 for
the weighted equivalence's rel_gap, which is a relative number already --
so that a cell that is zero by symmetry or cancellation, or a gap at the
rounding level, does not read inf or O(1); every other cell is scaled by
its own value.  Equal cells, NaN beside NaN too, differ by 0, and NaN
beside a number differs by inf.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (0, 3)
_RUN = ("import json, sys\n"
        "from gaussvar.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.load(sys.stdin)]))\n")


def study_argvs(work: Path) -> list[tuple[str, list[str]]]:
    """(output directory, argv without --out) of every study, specs written to ``work``."""
    out = []
    for name in sorted(workloads.WHY):
        for seed in SEEDS:
            plan = workloads.make_plan(name, seed)
            specs = work / "specs" / f"{name}-seed{seed}"
            specs.mkdir(parents=True)
            for chart, spec in plan.specs.items():
                (specs / f"{chart}.json").write_text(json.dumps(spec))
            for i, st in enumerate(plan.studies):
                spec = ["--spec", str(specs / f"{st.chart}.json")] if st.chart else []
                out.append((f"{name}-seed{seed}/{i:02d}-{st.sid.replace(':', '-')}",
                            [st.command, *spec, *st.flags]))
    return out


def run_side(checkout: Path, studies, out: Path) -> list[int]:
    """Run every study with ``checkout``'s package; their exit codes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argvs = [argv + ["--out", str(out / rel)] for rel, argv in studies]
    proc = subprocess.run([sys.executable, "-c", _RUN], input=json.dumps(argvs),
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def as_checkout(arg: str, tmp: Path) -> Path | None:
    """The checkout ``arg`` names: a directory, or a git revision exported
    into ``tmp``; None when it is neither."""
    if (Path(arg) / "src" / "gaussvar").is_dir():
        return Path(arg).resolve()
    if arg.startswith("-"):
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", arg], capture_output=True)
    if proc.returncode:
        return None
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(tmp / "checkout", filter="data")
    return tmp / "checkout"


def _gram_scales(rows):
    diag = {r["i"]: abs(float(r["value"])) for r in rows if r["i"] == r["j"]}
    return [math.sqrt(diag[r["i"]] * diag[r["j"]]) for r in rows]


def _basis_scales(rows):
    top = {}
    for r in rows:
        k = r["basis_index"]
        top[k] = max(top.get(k, 0.0), abs(float(r["coefficient"])))
    return [top[r["basis_index"]] for r in rows]


# file name -> (column, what its scale is, the scale of each row from the parent's rows)
SCALES = {
    "gram.csv": ("value", "sqrt(G_ii G_jj)", _gram_scales),
    "basis.csv": ("coefficient", "max |coefficient| of its basis_index", _basis_scales),
    "projection.csv": ("residual_norm", "f_norm",
                       lambda rows: [abs(float(r["f_norm"])) for r in rows]),
    "equivalence.csv": ("rel_gap", "1", lambda rows: [1.0] * len(rows)),
}


def numeric_differences(a: Path, b: Path) -> list[str]:
    """One line per column of numbers, when ``a`` and ``b`` have the same shape:
    its largest absolute difference, and its largest one relative to the scale
    ``SCALES`` gives the column, or else to ``a``'s own cell."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if [len(r) for r in ra] != [len(r) for r in rb] or not ra:
        return []
    scaled, what, scales_of = SCALES.get(a.name, (None, "", None))
    out = []
    for c, name in enumerate(ra[0]):
        try:
            pairs = [(float(x[c]), float(y[c])) for x, y in zip(ra[1:], rb[1:])]
        except ValueError:
            continue
        if name == scaled:
            scales, label = scales_of([dict(zip(ra[0], r)) for r in ra[1:]]), f"to {what} "
        else:
            scales, label = [abs(x) for x, _ in pairs], ""
        diffs = []
        for (x, y), s in zip(pairs, scales):
            if x == y or math.isnan(x) and math.isnan(y):  # NaN beside NaN is equal
                continue
            d = (abs(x - y), abs(x - y) / s if s else math.inf)
            diffs.append([math.inf if math.isnan(v) else v for v in d])  # NaN beside a number
        most = [max(d) for d in zip(*diffs)] or [0.0, 0.0]
        out.append(f"  {name}: max abs {most[0]:.3g}, max rel {label}{most[1]:.3g}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        parent = as_checkout(args[0], work) if len(args) == 1 else None
        if parent is None:
            print("usage: python3 tools/same_outputs.py PARENT_CHECKOUT|REVISION",
                  file=sys.stderr)
            return 2
        studies = study_argvs(work)
        codes = {side: run_side(checkout, studies, work / side)
                 for side, checkout in (("parent", parent), ("this", ROOT))}
        differ = [f"{rel}: exit {a} vs {b}" for (rel, _), a, b
                  in zip(studies, codes["parent"], codes["this"]) if a != b]
        csvs = sorted({p.relative_to(work / side).as_posix()
                       for side in codes for p in (work / side).rglob("*.csv")})
        lines = list(differ)
        for rel in csvs:
            a, b = work / "parent" / rel, work / "this" / rel
            both = a.is_file() and b.is_file()
            if not (both and a.read_bytes() == b.read_bytes()):
                differ.append(rel)
                lines += [rel] + (numeric_differences(a, b) if both else [])
    print("\n".join(lines + [f"{len(differ)} differences; {len(csvs)} CSV files "
                             f"compared with {args[0]}"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
