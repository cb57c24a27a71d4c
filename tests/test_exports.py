"""The package's public names, and those the benchmark harness looks up, resolve.

perfbench/ reaches the package by name: its tracer wraps the functions
listed in ``TARGETS`` with ``getattr``, and its scripts import names from
the package.  Its own tests also assert that the tracer patches some
modules' bindings of those functions, so each such binding must hold the
very function its defining module defines.  A name deleted here would
fail only in a benchmark run, so this test reads those names from the
harness's source and resolves each.

The package imports a public name's module on first access, so each name
is also checked against the module that defines it.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import scw_cvqkd

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


def _patched_bindings():
    """(module, name) of every ``(module, name) in replaced`` that
    perfbench/test_perfbench.py asserts: bindings the tracer must patch."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.In)
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "replaced"
        ):
            found.add(ast.literal_eval(node.left))
    return sorted(found)


@pytest.mark.parametrize("module, name", _tracer_targets())
def test_tracer_targets_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"scw_cvqkd.{module}"), name))


@pytest.mark.parametrize("module, name", _patched_bindings())
def test_patched_binding_is_its_defining_modules(module, name):
    # the tracer patches a module attribute only if it holds the very
    # function that a TARGETS entry names in its defining module
    (defining,) = [mod for mod, fn in _tracer_targets() if fn == name]
    original = getattr(importlib.import_module(f"scw_cvqkd.{defining}"), name)
    assert getattr(importlib.import_module(module), name) is original


@pytest.mark.parametrize("module, name", _imported_names())
def test_perfbench_imports_resolve(module, name):
    # worker.py imports scw_cvqkd.search.thread_count, which nothing in
    # the package calls any more
    assert hasattr(importlib.import_module(module), name)


def test_import_loads_no_submodule(fresh_python):
    out = fresh_python(
        "import json, sys, scw_cvqkd\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scw_cvqkd.'))))"
    )
    assert json.loads(out) == []


_LOADED_AFTER = (
    "import json, sys, scw_cvqkd\n"
    "exec(sys.argv[1])\n"
    "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules\n"
    "                        if m.startswith('scw_cvqkd.'))))"
)


def test_simulate_rounds_loads_no_search_stack(fresh_python):
    loaded = json.loads(fresh_python(_LOADED_AFTER, "scw_cvqkd.simulate_rounds"))
    assert "simulate" in loaded
    assert not {"search", "security", "finitekey"} & set(loaded)


def test_cli_loads_every_tracer_target(fresh_python):
    # the tracer wraps functions only in modules loaded when it starts,
    # and the benchmark's worker loads nothing more than scw_cvqkd.cli
    loaded = json.loads(fresh_python(_LOADED_AFTER, "import scw_cvqkd.cli"))
    assert {module for module, _ in _tracer_targets()} <= set(loaded)


def test_submodule_resolves_after_plain_import(fresh_python):
    out = fresh_python(
        "import scw_cvqkd\n"
        "print(scw_cvqkd.search.__name__, scw_cvqkd.errors.__name__)"
    )
    assert out.split() == ["scw_cvqkd.search", "scw_cvqkd.errors"]


@pytest.mark.parametrize("name", sorted(scw_cvqkd._MODULE_OF))
def test_public_name_is_its_defining_modules(name):
    module = importlib.import_module(f"scw_cvqkd.{scw_cvqkd._MODULE_OF[name]}")
    assert getattr(scw_cvqkd, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scw_cvqkd import *", namespace)
    assert set(scw_cvqkd.__all__) <= namespace.keys()
    assert namespace["sweep"] is importlib.import_module("scw_cvqkd.search").sweep


def test_dir_lists_public_names():
    assert set(scw_cvqkd.__all__) <= set(dir(scw_cvqkd))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        scw_cvqkd.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from scw_cvqkd import no_such_name  # noqa: F401


def test_moved_parameter_sets_keep_their_old_homes():
    # Bounds and FiniteKeyParams are defined in config, which builds them
    # from the file; search and finitekey still export them
    from scw_cvqkd import config, finitekey, search

    assert search.Bounds is config.Bounds
    assert finitekey.FiniteKeyParams is search.FiniteKeyParams is config.FiniteKeyParams
