"""Every name a module of src/supermin imports is used by that module.

An import kept on purpose (a re-export that nothing in its own module
reads) carries ``# noqa: F401`` on its line.

Importing supermin leaves a process with one thread: the package asks
OpenBLAS for one unless the caller has set ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "supermin"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


_THREADS = ("import os, supermin\n"
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs; with one, OpenBLAS starts no worker")
@pytest.mark.parametrize("caller, want", [(None, "1 1"), ("2", "2 2")], ids=["unset", "set_to_2"])
def test_a_supermin_process_has_one_thread_unless_the_caller_sets_one(caller, want):
    """A fresh process that imports supermin runs one thread, and a
    caller's OPENBLAS_NUM_THREADS is kept.  This process imported supermin,
    so it carries the variable itself: the child's environment is built
    without it, then given the caller's value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    res = subprocess.run([sys.executable, "-c", _THREADS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == want
