"""The benchmark's traced pass wraps program functions by name.

perfbench/tracer.py looks each target up in its owner's ``__dict__``; a
refactor that drops or moves one of those names would break only the
traced benchmark run.  This test makes it fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer(monkeypatch):
    # tracer.py imports its sibling oracle.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.TARGETS
    for module_name, path, *_ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path}"
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"
