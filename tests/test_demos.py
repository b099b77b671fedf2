"""Every narrative script in demos/ and every ``python`` block of README.md
runs to completion, with nothing on stderr.

Each one runs with ``-W error::RuntimeWarning``, so a numpy warning fails
it instead of passing unseen in the child interpreter.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
        env=src_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_python_blocks_run(tmp_path, src_env):
    assert README_BLOCKS, "README.md has no python block"
    out = []
    for block in README_BLOCKS:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", block], cwd=tmp_path,
            env=src_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        out.append(proc.stdout)
    # the library example: the cylinder's basis at D = 8 has rank (D + 1)^2
    assert out[0].split()[0] == "81"
