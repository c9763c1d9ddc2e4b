"""README.md's python code blocks run as written, each in a child
interpreter that imports ciprng from this checkout's `src`."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, tmp_path):
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    guard = f"import ciprng; assert ciprng.__file__.startswith({str(ROOT / 'src')!r}), ciprng.__file__\n"
    run = subprocess.run([sys.executable, "-c", guard + BLOCKS[index]], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
