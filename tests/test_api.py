"""Pins of the public surface: one spelling per job and the module layering."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import intalg
from intalg import algebra, linalg

# The package's ``interval`` attribute is the constructor, not the module.
interval_module = importlib.import_module("intalg.interval")
PACKAGE_DIR = Path(intalg.__file__).parent
# Modules that each build on the scalar core and must not depend on each other.
PEERS = ("linalg", "optimize", "exprcalc")


def test_all_names_resolve_once():
    names = intalg.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    for name in names:
        assert getattr(intalg, name, None) is not None, name


@pytest.mark.parametrize("name", ("scalar_add", "contains"))
def test_removed_functions_are_gone(name):
    assert not hasattr(intalg, name)
    assert not hasattr(interval_module, name)
    assert name not in intalg.__all__


def test_removed_methods_are_gone():
    assert not hasattr(linalg.IntervalMatrix, "T")
    assert not hasattr(algebra.AlgebraElement, "__mul__")
    assert not hasattr(algebra.AlgebraElement, "is_zero")


def test_schulz_has_no_residuals_out_parameter():
    assert "residuals" not in inspect.signature(intalg.schulz_invert).parameters


def test_one_iteration_record_and_trace_writer():
    assert intalg.IterationRecord is interval_module.IterationRecord
    assert intalg.write_trace_csv is interval_module.write_trace_csv


def _sibling_imports(module: str) -> set[str]:
    """Names of intalg modules imported by src/intalg/<module>.py."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("intalg."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("intalg."):
                    found.add(alias.name.split(".")[1])
    return found


@pytest.mark.parametrize("module", PEERS)
def test_peer_modules_do_not_import_each_other(module):
    assert not _sibling_imports(module) & (set(PEERS) - {module})


def test_no_assert_statements():
    # python -O strips asserts; failures must raise a typed IntalgError.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found
