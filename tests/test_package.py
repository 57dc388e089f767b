"""The public surface: each module imports alone, README's tour runs, and
only _kernels touches its own private names."""

import ast
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


def _kernel_privates_used(tree: ast.AST) -> list:
    """`_`-prefixed _kernels names that a module imports or reads: through
    `from ._kernels import _x`, through `_kernels._x` on any name the
    module bound to _kernels, or through getattr(_kernels, "_x")."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if module in (".", "zerotrace") and alias.name == "_kernels":
                    aliases.add(alias.asname or alias.name)
                elif module in ("._kernels", "zerotrace._kernels") and private(alias.name):
                    found.append(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "zerotrace._kernels" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and private(node.attr):
                found.append(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in aliases
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and private(node.args[1].value)
        ):
            found.append(node.args[1].value)
    return found


def test_guard_sees_each_way_of_reaching_a_kernel_private():
    source = (
        "from . import _kernels\n"
        "from . import _kernels as k\n"
        "from ._kernels import _columns, binom_le\n"
        "_kernels._rho_search(k._blocks, getattr(_kernels, '_full_depth'), _kernels.__name__)\n"
    )
    found = _kernel_privates_used(ast.parse(source))
    assert sorted(found) == ["_blocks", "_columns", "_full_depth", "_rho_search"]


def test_only_the_kernels_module_uses_kernel_privates():
    package = Path(zerotrace.__file__).parent
    used = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "_kernels.py":
            found = _kernel_privates_used(ast.parse(path.read_text(encoding="utf-8")))
            if found:
                used[path.name] = sorted(set(found))
    assert used == {}
