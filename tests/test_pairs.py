"""tools/pairs.py alternates its runs and reports paired differences (on stub benches)."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# a stand-in for perfbench/run.py: logs its side and argv, prints noise, then one JSON line
_STUB = textwrap.dedent('''
    import json, sys
    from pathlib import Path
    here = Path(__file__).resolve().parents[1]
    with open(here.parent / "log.txt", "a") as fh:
        fh.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
    print("== study-mix seed=0")
    print(json.dumps({"correct": True, "attempted": 3, "failed": FAILED,
                      "metrics": {"pass_s": {"value": PASS, "unit": "s"},
                                  "peak_rss_mb": {"value": 80.0, "unit": "MB"}}}))
''')


def stub_checkout(root: Path, name: str, pass_s, failed=0) -> Path:
    bench = root / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(_STUB.replace("PASS", repr(pass_s))
                                  .replace("FAILED", str(failed)))
    return root / name


@pytest.fixture()
def this(tmp_path, monkeypatch):
    monkeypatch.setattr(pairs, "ROOT", stub_checkout(tmp_path, "this", 0.15))
    return tmp_path


def test_alternates_sides_and_reports_the_median_difference(this, capsys):
    parent = stub_checkout(this, "parent", 0.20)
    assert pairs.main([str(parent), "--workload", "study-mix", "--pairs", "3",
                       "--seed", "7", "--seconds", "2"]) == 0
    log = (this / "log.txt").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["parent", "this", "this", "parent",
                                                 "parent", "this"]
    assert all(line.split()[1:] == ["--workload", "study-mix", "--seed", "7",
                                    "--trace", "0", "--seconds", "2.0"] for line in log)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("pair 1: parent pass_s=0.2 peak_rss_mb=80 | "
                      "this pass_s=0.15 peak_rss_mb=80")
    assert "pass_s parent: median 0.2, quartiles 0.2 .. 0.2" in out
    assert "pass_s this: median 0.15, quartiles 0.15 .. 0.15" in out
    assert out[-4] == ("pass_s: median difference -0.05 (-25.0% of the parent's median), "
                       "this lower in 3 of 3 pairs")
    assert out[-1].startswith("peak_rss_mb: median difference +0 ")
    assert out[-1].endswith("this lower in 0 of 3 pairs")

def test_a_failed_check_exits_1(this, capsys):
    parent = stub_checkout(this, "parent", 0.20, failed=1)
    assert pairs.main([str(parent), "--workload", "study-mix", "--pairs", "2"]) == 1
    assert "2 failed studies" in capsys.readouterr().err


def test_a_run_without_a_result_exits_2(this, capsys):
    parent = this / "parent" / "perfbench"
    parent.mkdir(parents=True)
    (parent / "run.py").write_text("import sys; print('boom', file=sys.stderr); sys.exit(2)\n")
    with pytest.raises(SystemExit) as exc:
        pairs.main([str(parent.parent), "--workload", "study-mix", "--pairs", "1"])
    assert exc.value.code == 2
    assert "boom" in capsys.readouterr().err


def test_spread_gives_the_median_and_quartiles():
    assert pairs.spread([4.0, 1.0, 3.0, 2.0]) == "median 2.5, quartiles 1.25 .. 3.75"
    assert pairs.spread([0.5]) == "median 0.5, quartiles 0.5 .. 0.5"
