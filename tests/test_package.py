import ast
import importlib
import itertools
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import code_lines
import sfebounds
from sfebounds.bounds import present

PUBLIC_NAMES = [
    "BoundReport",
    "CurvePoint",
    "DrStats",
    "FixedPointResult",
    "GentleReport",
    "InsecureTaskError",
    "LearnReport",
    "MATERIALIZE_CAP",
    "Povm",
    "QuantumEncoding",
    "SequentialReport",
    "SfeTask",
    "TaskError",
    "a_rand",
    "averaged_strategy_success",
    "b_rand",
    "b_rand_bruteforce",
    "b_rand_closed_form",
    "bound_report",
    "ca_crossing",
    "cb_from_ca",
    "check_gentle",
    "check_sequential",
    "combined_povm",
    "emit_curve",
    "load_task",
    "make_family",
    "matrix_sqrt",
    "random_density",
    "random_encoding",
    "random_povm",
    "run_cheating_alice",
    "run_cheating_bob",
    "run_honest",
    "solve_fixed_point",
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


# library names deleted because only unit tests reached them, each with the
# submodule that defined it
REMOVED_NAMES = {
    "KitaevBound": "dierolling",
    "kitaev_bound": "dierolling",
    "oracle_alice": "dierolling",
    "hs_inner": "measurements",
    "operator_norm": "measurements",
    "sequential_operator": "measurements",
    "trace_norm": "measurements",
    "answer_vector": "tasks",
}


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_cannot_be_looked_up(name):
    assert name not in sfebounds.__all__
    assert not hasattr(sfebounds, name)
    assert REMOVED_NAMES[name] in SUBMODULES
    for module in SUBMODULES:
        assert not hasattr(importlib.import_module(f"sfebounds.{module}"), name), module


def test_povm_has_no_completeness_defect_method():
    assert not hasattr(sfebounds.Povm, "completeness_defect")


PACKAGE_DIR = Path(sfebounds.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _references(tree: ast.Module, skip: str = "") -> set:
    """Identifiers, attribute names, imported names and string constants in
    ``tree``, leaving out the module-level definition named ``skip``."""
    nodes = [
        node
        for node in tree.body
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip)
    ]
    names = set()
    for node in itertools.chain.from_iterable(map(ast.walk, nodes)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _attribute_reads(nodes) -> set:
    return {
        node.attr
        for node in itertools.chain.from_iterable(map(ast.walk, nodes))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _is_named_tuple(cls: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)


def test_every_public_name_is_reached_outside_the_tests():
    """A public name, exported or a module-level function or class of a
    submodule, stays only while something besides its own definition and
    the unit tests uses it: a package module other than ``__init__``, a
    benchmark file, the acceptance suite, or the README.  A public method
    or property of a public class, and a field of a public named tuple,
    its own or one it inherits from a private ``_...Fields`` base, stays
    only while one of those files reads it as an attribute outside the
    class and that base; a README word does not count, as short names such
    as ``f`` are common words."""
    modules = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    }
    homes = dict(sfebounds._EXPORTS)
    classes = []  # (module, class node)
    for module, tree in modules.items():
        for node in tree.body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("_"):
                homes.setdefault(node.name, module)
                if isinstance(node, ast.ClassDef):
                    classes.append((module, node))
    trees = dict(modules)
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        trees[path] = ast.parse(path.read_text())
    references = {where: _references(tree) for where, tree in trees.items()}
    readme = (ROOT / "README.md").read_text()
    unreached = []
    for name, home in homes.items():
        used = _references(modules[home], skip=name).union(
            *(names for where, names in references.items() if where != home)
        )
        if name not in used and not re.search(rf"\b{name}\b", readme):
            unreached.append(name)
    for module, cls in classes:
        bases = {base.id for base in cls.bases if isinstance(base, ast.Name) and base.id.startswith("_")}
        owners = [cls] + [
            node for node in modules[module].body if isinstance(node, ast.ClassDef) and node.name in bases
        ]
        outside = [node for node in modules[module].body if all(node is not owner for owner in owners)]
        reads = _attribute_reads(outside).union(
            *(_attribute_reads(tree.body) for where, tree in trees.items() if where != module)
        )
        methods = [
            node.name
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        ]
        fields = [
            node.target.id
            for owner in owners
            if _is_named_tuple(owner)
            for node in owner.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        ]
        unreached.extend(f"{cls.name}.{name}" for name in methods + fields if name not in reads)
    assert unreached == []


def _defaulted_parameters(fn: ast.FunctionDef, skip: int) -> list:
    """(name, position) of each parameter of ``fn`` that has a default,
    positions counted after the first ``skip`` parameters; None for a
    keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_every_public_parameter_is_set_outside_the_tests():
    """A parameter with a default that only the unit tests set is a constant:
    every defaulted parameter of a public function, or of a public class's
    ``__init__`` or ``__new__``, is passed by its keyword name somewhere in a
    package module, a benchmark file or the acceptance suite, or by position
    to a call of its own function there."""
    modules = [ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))]
    parameters = []  # (function or class name, parameter, position)
    for tree in modules:
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parameters += [(node.name, *p) for p in _defaulted_parameters(node, 0)]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__new__"):
                        parameters += [(node.name, *p) for p in _defaulted_parameters(item, 1)]
    paths = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    trees = modules + [ast.parse(path.read_text()) for path in paths]
    keywords, positions = set(), {}
    for node in itertools.chain.from_iterable(map(ast.walk, trees)):
        if isinstance(node, ast.Call):
            keywords.update(k.arg for k in node.keywords if k.arg is not None)
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            positions[callee] = max(positions.get(callee, 0), count)
    unset = [
        f"{owner}.{name}"
        for owner, name, position in parameters
        if name not in keywords and (position is None or positions.get(owner, 0) <= position)
    ]
    assert unset == []


def test_readme_library_example_gives_the_values_its_comments_state():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    sb, task, report = namespace["sb"], namespace["task"], namespace["report"]
    assert sb.b_rand_bruteforce(task) == Fraction(1, 4)
    assert "# Fraction(1, 4), exact" in example
    shown = [present(report.c), present(report.alice_bound), present(report.bob_bound)]
    assert shown == ["1.0326", "0.3442", "0.2581"]
    assert "# c ~ {}, alice_bound {}, bob_bound {}".format(*shown) in example
    assert sb.check_gentle(namespace["rho"], namespace["pov"].elements[0]).holds


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


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os


def f(a,
      b):
    """A function docstring."""
    total = a + \\
        b
    "a string that is no docstring"
    return total  # a trailing comment


class C:
    """A class docstring."""

    x = """a string
    value"""
'''


def test_code_lines_counts_code_only(tmp_path):
    """``tests/code_lines.py`` counts every line that holds code: not the
    docstrings, the comment line or the blank lines, but both lines of a
    continuation and of a string that is no docstring."""
    (tmp_path / "fixture.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "empty.py").write_text("")
    # import os; def f(a, / b):; total = a +; b; "a string ..."; return;
    # class C:; x = """a string; value"""
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 10
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "empty 0\nfixture 10\ntotal 10\n"
