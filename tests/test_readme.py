"""Every Python example of README.md runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lifisim

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.skipif(CPUS < 2, reason="the example runs with workers=2")
@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(tmp_path, code):
    env = dict(os.environ)
    src = str(Path(lifisim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
