import ast
import importlib
from pathlib import Path

import pytest

import sfebounds

PUBLIC_NAMES = [
    "BoundReport",
    "CurvePoint",
    "DrStats",
    "FamilySpec",
    "FixedPointResult",
    "GentleReport",
    "InsecureTaskError",
    "KitaevBound",
    "LearnReport",
    "MATERIALIZE_CAP",
    "Povm",
    "QuantumEncoding",
    "SequentialReport",
    "SfeTask",
    "TaskError",
    "a_rand",
    "answer_vector",
    "averaged_strategy_success",
    "b_rand",
    "b_rand_bruteforce",
    "b_rand_closed_form",
    "blind_alice",
    "bound_report",
    "ca_crossing",
    "cb_from_ca",
    "check_gentle",
    "check_sequential",
    "combined_povm",
    "emit_curve",
    "hs_inner",
    "kitaev_bound",
    "load_task",
    "make_family",
    "matrix_sqrt",
    "operator_norm",
    "oracle_alice",
    "random_density",
    "random_encoding",
    "random_povm",
    "run_cheating_alice",
    "run_cheating_bob",
    "run_honest",
    "sequential_operator",
    "solve_fixed_point",
    "trace_norm",
    "validate_task",
    "write_curve_csv",
]

SUBMODULES = ("bounds", "dierolling", "measurements", "tasks")


def test_public_names_are_pinned():
    assert sfebounds.__all__ == PUBLIC_NAMES
    assert sfebounds.__version__ == "0.1.0"


def test_star_import_binds_every_name_to_its_definition():
    namespace = {}
    exec("from sfebounds import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    modules = [importlib.import_module(f"sfebounds.{name}") for name in SUBMODULES]
    for name in PUBLIC_NAMES:
        assert any(vars(module).get(name) is namespace[name] for module in modules), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sfebounds' has no attribute 'nope'$"):
        sfebounds.nope
    with pytest.raises(ImportError):
        exec("from sfebounds import nope", {})


def test_dir_lists_the_public_names_and_submodules_resolve():
    assert set(PUBLIC_NAMES) <= set(dir(sfebounds))
    for name in SUBMODULES:
        assert getattr(sfebounds, name) is importlib.import_module(f"sfebounds.{name}")


PACKAGE_DIR = Path(sfebounds.__file__).parent


def _private_definitions(tree: ast.Module) -> list:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_level_name_is_referenced_in_the_package():
    """A helper whose last caller is deleted goes with it: every ``_name``
    defined at module level is loaded, imported or read as an attribute
    somewhere in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    orphans = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert orphans == []


def test_no_module_imports_dataclasses():
    """Record types are named tuples: importing dataclasses would cost every
    command its import, with inspect, dis, ast and tokenize under it, and
    each record class a generated body."""
    imports = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "dataclasses"]
    assert imports == []
