"""The public surface: each module imports alone, and README's tour runs."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zerotrace

SRC = Path(zerotrace.__file__).parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(zerotrace.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"import zerotrace.{module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_readme_tour_runs_as_written():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"A short tour:\n\n```python\n(.*?)```", readme, re.S)
    assert tour, "README has no tour block"
    exec(compile(tour.group(1), "README.md", "exec"), {})
