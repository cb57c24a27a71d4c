"""The package names the benchmark harness looks up still resolve.

perfbench/ reaches the package by name: its tracer wraps the functions
listed in ``TARGETS`` with ``getattr``, and its scripts import names from
the package.  A name deleted here would fail only in a benchmark run, so
this test reads those names from the harness's source and resolves each.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _imported_names():
    """(module, name) of every ``from scw_cvqkd... import name`` in perfbench/."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            package = (getattr(node, "module", None) or "").split(".")[0]
            if isinstance(node, ast.ImportFrom) and package == "scw_cvqkd":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", _tracer_targets())
def test_tracer_targets_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"scw_cvqkd.{module}"), name))


@pytest.mark.parametrize("module, name", _imported_names())
def test_perfbench_imports_resolve(module, name):
    # worker.py imports scw_cvqkd.search.thread_count, which nothing in
    # the package calls any more
    assert hasattr(importlib.import_module(module), name)
