"""Every name a module of src/supermin imports is used by that module.

An import kept on purpose (a re-export that nothing in its own module
reads) carries ``# noqa: F401`` on its line.

Every function, class and method that src/supermin defines is read by the
program: by src/, by perfbench/ or by the acceptance tests, a top-level
definition through its own module and a method through an attribute
access.  A helper that only its own tests call is dead code and fails
here; a name kept on purpose goes in ``UNREAD_ALLOWED`` with its reason.

Only g2 reads ``CROSS_TABLE``; every other module reads its one decoding,
``g2.CROSS_TERMS``.  Only field reads its private names, ``_SparsePoly``
excepted.

Importing supermin leaves a process with one thread: the package asks
OpenBLAS for one unless the caller has set ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supermin"


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


# {"module.name": "why it stays though nothing reads it"}; an entry the
# program reads, or that names nothing, fails the test as stale
UNREAD_ALLOWED: dict[str, str] = {}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def reads(paths) -> set[tuple]:
    """What the .py files under ``paths`` read, as tuples:
    ("name", file stem, id) for an ``ast.Name``; ("attr", name) for an
    attribute access; ("attr", module, name) when that attribute is taken
    of the bare name ``module``; ("import", module, name) for
    ``from module import name`` (a "supermin." or relative prefix
    dropped); and ("string", part) for a part of a string that is a dotted
    name, such as perfbench/tracer.py's ``TARGETS`` or ``__all__``."""
    out = set()
    for path in paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for node in ast.walk(ast.parse(file.read_text())):
                if isinstance(node, ast.Name):
                    out.add(("name", file.stem, node.id))
                elif isinstance(node, ast.Attribute):
                    out.add(("attr", node.attr))
                    if isinstance(node.value, ast.Name):
                        out.add(("attr", node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    module = node.module.removeprefix("supermin.")
                    out.update(("import", module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and _DOTTED.fullmatch(node.value):
                    out.update(("string", part) for part in node.value.split("."))
    return out


def unread_definitions(package: Path, readers) -> list[str]:
    """"module.name" of each top-level function or class of ``package``, and
    "module.Class.name" of each method of its classes that is not a dunder,
    that nothing in ``readers`` reads.  A top-level definition is read
    through its own module: a name there, an import from it, or
    ``module.name``.  A method is read only through an attribute access.
    A dotted-name string reads every definition its parts name."""
    seen = reads(readers)
    unread = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not seen & {("name", module, name), ("import", module, name),
                           ("attr", module, name), ("string", name)}:
                unread.append(f"{module}.{name}")
            if isinstance(node, ast.ClassDef):
                unread += [f"{module}.{name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))
                           and not seen & {("attr", m.name), ("string", m.name)}]
    return unread


def readers_of(package: Path) -> tuple[Path, ...]:
    return (package, ROOT / "perfbench", ROOT / "tests" / "test_acceptance.py")


def test_every_definition_is_read_by_the_program():
    assert sorted(unread_definitions(SRC, readers_of(SRC))) == sorted(UNREAD_ALLOWED)


def test_the_scan_names_a_dead_function(tmp_path):
    """Negative control: a copy of the package with one helper nothing
    calls, and one method nothing calls, fails the scan by those names."""
    copy = tmp_path / "supermin"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with (copy / "g2.py").open("a") as f:
        f.write("\n\ndef dead_helper(x):\n    return x\n")
    with (copy / "poly.py").open("a") as f:
        f.write("\n\nclass Dead:\n    def method_nobody_calls(self):\n        return 0\n")
    unread = [u for u in unread_definitions(copy, readers_of(copy)) if u not in UNREAD_ALLOWED]
    assert unread == ["g2.dead_helper", "poly.Dead", "poly.Dead.method_nobody_calls"]


def test_the_scan_reads_a_name_only_through_its_module(tmp_path):
    """Negative control: ``poly.evaluate`` is read by that name in cli,
    harmonic and plucker, and a name read there reads no other definition
    called ``evaluate``.  A copy of the package with a top-level
    ``evaluate`` in g2 and a class in twistor with an ``evaluate`` method
    fails the scan by those names."""
    copy = tmp_path / "supermin"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with (copy / "g2.py").open("a") as f:
        f.write("\n\ndef evaluate(x):\n    return x\n")
    with (copy / "twistor.py").open("a") as f:
        f.write("\n\nclass Shape:\n    def evaluate(self):\n        return 0\n")
    unread = [u for u in unread_definitions(copy, readers_of(copy)) if u not in UNREAD_ALLOWED]
    assert unread == ["g2.evaluate", "twistor.Shape", "twistor.Shape.evaluate"]


def cross_table_readers(package: Path) -> list[str]:
    """The modules of ``package`` other than g2 that read ``CROSS_TABLE``,
    by import, as a name or as an attribute."""
    return [path.stem for path in sorted(package.glob("*.py")) if path.stem != "g2"
            and any(r[0] != "string" and r[-1] == "CROSS_TABLE" for r in reads([path]))]


def test_only_g2_reads_the_cross_table():
    """g2 decodes CROSS_TABLE's signed entries once, as CROSS_TERMS, and
    every other module reads that."""
    assert cross_table_readers(SRC) == []


def test_the_cross_table_scan_names_its_readers(tmp_path):
    """Negative control: a copy of the package that reads CROSS_TABLE by
    import in plucker, as an attribute in twistor and as a bare name in
    catalog fails the scan by those modules."""
    copy = tmp_path / "supermin"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for module, line in (("plucker", "from .g2 import CROSS_TABLE  # noqa: F401"),
                         ("twistor", "_T = g2.CROSS_TABLE"),
                         ("catalog", "_T = CROSS_TABLE")):
        with (copy / f"{module}.py").open("a") as f:
            f.write(f"\n{line}\n")
    assert cross_table_readers(copy) == ["catalog", "plucker", "twistor"]


def field_private_readers(package: Path) -> list[str]:
    """"module: name" for each private name of field (a leading underscore,
    not a dunder) that another module of ``package`` reads, by import or as
    an attribute of ``field``; ``_SparsePoly``, the ring core, is allowed."""
    return sorted(f"{path.stem}: {r[2]}" for path in package.glob("*.py") if path.stem != "field"
                  for r in reads([path]) if r[:2] in {("import", "field"), ("attr", "field")}
                  and r[2].startswith("_") and not r[2].startswith("__")
                  and r[2] != "_SparsePoly")


def test_only_field_reads_its_private_names():
    """The ring core's folds and helpers stay inside field: poly builds on
    ``_SparsePoly`` and reads nothing else private of it."""
    assert field_private_readers(SRC) == []


def test_the_field_scan_names_its_readers(tmp_path):
    """Negative control: a copy of the package that imports ``_settled`` in
    poly and reads ``field._rows`` as an attribute in catalog fails the scan
    by those names, while ``_SparsePoly`` and a dunder pass."""
    copy = tmp_path / "supermin"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    for module, line in (("poly", "from .field import _settled  # noqa: F401"),
                         ("catalog", "_R = field._rows"),
                         ("twistor", "_F = field.__file__, field._SparsePoly")):
        with (copy / f"{module}.py").open("a") as f:
            f.write(f"\n{line}\n")
    assert field_private_readers(copy) == ["catalog: _rows", "poly: _settled"]


_THREADS = ("import os, supermin, numpy\n"
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs; with one, OpenBLAS starts no worker")
@pytest.mark.parametrize("caller, want", [(None, "1 1"), ("2", "2 2")], ids=["unset", "set_to_2"])
def test_a_supermin_process_has_one_thread_unless_the_caller_sets_one(caller, want):
    """A fresh process that imports supermin, then numpy, runs one thread,
    and a caller's OPENBLAS_NUM_THREADS is kept.  supermin itself loads no
    numpy, so the child imports it to start OpenBLAS.  This process
    imported supermin, so it carries the variable itself: the child's
    environment is built without it, then given the caller's value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    res = subprocess.run([sys.executable, "-c", _THREADS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == want
