"""Every demo script, and the README's library tour, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_public_surface_and_readme_tour():
    import liccilab

    namespace = {}
    exec("from liccilab import *", namespace)
    missing = [name for name in liccilab.__all__ if name not in namespace]
    assert not missing
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(tour, {})
