"""Pins of the public surface: one spelling per job and the module layering."""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
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


@pytest.mark.parametrize("name", ("scalar_add", "contains", "from_split"))
def test_removed_functions_are_gone(name):
    for module in (intalg, interval_module, algebra):
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_removed_methods_are_gone():
    assert not hasattr(linalg.IntervalMatrix, "T")
    assert not hasattr(algebra.AlgebraElement, "__mul__")
    assert not hasattr(algebra.AlgebraElement, "is_zero")
    assert not hasattr(interval_module.IntervalNumber, "same_element")


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


def _unused_imports(tree) -> list[str]:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in read | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # no linter runs on this package, so an import left behind by deleted
    # code would stay unseen
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []



def test_the_tokenizer_is_the_only_regex():
    # one grammar for literals: option values, matrix files and expressions
    # all read through interval._TOKEN_RE
    patterns = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "re"
    ]
    assert len(patterns) == 1 and patterns[0].startswith("interval.py:"), patterns


def test_no_assert_statements():
    # python -O strips asserts; failures must raise a typed IntalgError.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def test_no_dataclasses_or_cached_property():
    # Decorating dataclasses and importing them cost most of intalg's import
    # time, which every command-line run pays.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            if {"dataclasses", "dataclass", "cached_property"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_cli_import_leaves_out_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = (
        "import intalg.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def _owned_nodes(node, owner=None):
    """(qualified name of the innermost enclosing function or class, or
    None; node) for each node under node."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{child.name}" if owner else child.name
        yield inner, child
        yield from _owned_nodes(child, inner)


def _builtin_calls(tree):
    """(owner, builtin) for each call of the builtin exec or compile."""
    for owner, node in _owned_nodes(tree):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Name):
            if func.id in ("exec", "compile"):
                yield owner, func.id


def test_generated_code_is_compiled_in_one_place():
    # Every generated function goes through algebra._compile; re.compile is
    # an attribute call, not the builtin, and does not count.
    calls = [
        (path.name, *call)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for call in _builtin_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(calls) == [
        ("algebra.py", "_compile", "compile"),
        ("algebra.py", "_compile", "exec"),
    ]


def _bypassed_writes(tree):
    """(owner, line) for each use of ``object.__setattr__`` or of a
    descriptor's ``__set__``: the two ways past a record's refused
    assignment."""
    for owner, node in _owned_nodes(tree):
        if not isinstance(node, ast.Attribute):
            continue
        value = node.value
        if node.attr == "__set__" or (
            node.attr == "__setattr__" and isinstance(value, ast.Name) and value.id == "object"
        ):
            yield owner, node.lineno


def test_records_are_written_only_while_they_are_built():
    # The record builders and the constructors that store checked fields are
    # the only writers; no record is written after its constructor returns.
    builders = {
        "algebra._field_init",
        "algebra._slot_make",
        "linalg.IntervalVector.__init__",
        "linalg.IntervalMatrix.__init__",
        "optimize.OptimizerConfig.__post_init__",
    }
    found = [
        (f"{path.stem}.{owner}", f"{path.name}:{line}")
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for owner, line in _bypassed_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [where for owner, where in found if owner not in builders] == []
    # and the scan sees every builder, so it is not passing vacuously
    assert {owner for owner, _ in found} == builders


def _float_calls(tree):
    """(owner, line) for each call of the builtin float, or of map with float."""
    for owner, node in _owned_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called = node.func.id
            if called == "map" and node.args and isinstance(node.args[0], ast.Name):
                called = node.args[0].id
            if called == "float":
                yield owner, node.lineno


def test_reals_are_converted_in_one_place():
    # algebra._float turns a caller's real into a float, an int too large
    # for one into an infinity; the token readers convert literal text, and
    # the plane kernels build their identity from bools
    allowed = {
        "algebra._float",
        "interval._Reader.number",
        "exprcalc._Parser.parse",
        "exprcalc._Parser.exponent",
        "linalg._plane_product",
    }
    found = [
        (f"{path.stem}.{owner}", f"{path.name}:{line}")
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for owner, line in _float_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [where for owner, where in found if owner not in allowed] == []
    assert {owner for owner, _ in found} == allowed


X = intalg.interval(1, 2)
GI = intalg.GeneralizedInterval(1, 2)

# Each public entry point that takes a real or an interval, with the fed
# value in that place; a Minkowski op gets it raw and as the pair [v, v].
ENTRY_POINTS = {
    "GeneralizedInterval": lambda v: intalg.GeneralizedInterval(v, 1),
    "AlgebraElement": lambda v: intalg.AlgebraElement(4, (v, 0, 0, 0)),
    "scale": lambda v: X.element.scale(v),
    "interval": lambda v: intalg.interval(v),
    "interval-hi": lambda v: intalg.interval(1, v),
    "interval-eps": lambda v: intalg.interval(1, eps=v),
    "embed": lambda v: intalg.embed(v, 1),
    "scalar_mul": lambda v: intalg.scalar_mul(v, X),
    "format_number": intalg.format_number,
    **{
        f"{op.__name__}{how}": (lambda v, op=op, pair=pair: op(pair(v), GI))
        for op in (intalg.mink_add, intalg.mink_sub, intalg.mink_mul, intalg.mink_div)
        for how, pair in (("", lambda v: v), ("-pair", lambda v: intalg.GeneralizedInterval(v, v)))
    },
    "IntervalVector": lambda v: intalg.IntervalVector([X, v]),
    "IntervalMatrix": lambda v: intalg.IntervalMatrix([[v]]),
    "compare": lambda v: intalg.compare(X, v),
    "compare-first": lambda v: intalg.compare(v, X),
    "fd_first": lambda v: intalg.fd_first(lambda x: x * x, v),
    "fd_first-h": lambda v: intalg.fd_first(lambda x: x * x, X, v),
    "OptimizerConfig": lambda v: intalg.OptimizerConfig(rho=v),
}
BAD_VALUES = {"10**400": 10**400, "-10**400": -(10**400), "inf": math.inf,
              "nan": math.nan, "str": "a", "1_0": "1_0", "nan-text": " nan ", "None": None}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=list(BAD_VALUES))
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_bad_value_is_refused_with_a_typed_error(name, value):
    # never a bare OverflowError (an int too large for a float) or
    # AttributeError (a non-interval read as one); text is read only by the
    # literal grammar; a record may hold a NaN, a Minkowski result may not
    try:
        result = ENTRY_POINTS[name](value)
    except (TypeError, ValueError, intalg.IntalgError):
        return
    assert not isinstance(value, str), result
    if name.startswith("mink_"):
        assert not (math.isnan(result.lo) or math.isnan(result.hi)), result
