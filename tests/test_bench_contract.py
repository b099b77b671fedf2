"""The benchmark under ``perfbench/`` reaches into ``src/`` by name.

A rename in the package that breaks the tracer or the bench's own
failure-path checks fails here, not only when the benchmark runs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans._targets() if not hasattr(owner, attr)]
    assert not missing


def test_selftest_passes(src_env):
    # writes only under the git-ignored .perfbench/ of the repository
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          env=src_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
