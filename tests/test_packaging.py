import ast
import os
import subprocess
import sys
from pathlib import Path

from setuptools import find_packages

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_find_packages_ships_nervecheck():
    assert "nervecheck" in find_packages(str(SRC))


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "nervecheck.cli", "dn", "--n", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "4 elements" in proc.stdout


def test_no_unused_imports_in_package():
    unused = []
    for path in sorted((SRC / "nervecheck").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value.id for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


# Module-level names of the package that src/ never uses.  Each is an
# independent oracle or fixture that a test compares against.
TEST_ONLY = {
    "collapse": "greedy collapse, the oracle of strong_collapse",
    "relative2_simplices_literal": "literal enumeration that certifies Rel2Backend",
    "chi_squares_hold": "literal restriction squares of the relative 1-nerve",
    "d_via_under_category": "under-category oracle of build_d",
    "rho_fully_faithful": "order embedding of the pullback pairing",
    "superior_closed_form": "closed form of the superior faces",
    "sn_cells": "boundary sweep that boundary_functor is checked against",
    "ComplexBackend": "simplicial set of a complex, the SimplexTable fixture",
    "relative_nerve_1": "Lurie's relative nerve as a table; the benchmark traces it",
    "scaled_nerve": "scaled nerve of both base kinds behind one call",
}


def _is_suite_builder(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_suite" for d in node.decorator_list)


def _names_in(paths):
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return named


def _module_level_names(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not _is_suite_builder(node):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _unused_in_src(src, tests):
    """Module-level names of the packages under src that src never uses
    besides their definitions, split into (named by tests, named nowhere);
    suite builders register by decorator."""
    in_src = _names_in(sorted(src.glob("**/*.py")))
    in_tests = _names_in(sorted(tests.glob("*.py")))
    unused = {name for path in sorted(src.glob("*/*.py"))
              for name in _module_level_names(path) if name not in in_src}
    return unused & in_tests, unused - in_tests


def test_no_dead_helpers_in_package():
    test_only, dead = _unused_in_src(SRC, TESTS)
    assert sorted(dead) == []
    assert sorted(test_only) == sorted(TEST_ONLY)


def test_scan_flags_a_helper_only_a_test_names(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
        "def helper():\n    return used()\n\n\ndef orphan():\n    return 0\n")
    (pkg / "cli.py").write_text("from .mod import used\n\nprint(used())\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import helper\n\n\ndef test_helper():\n"
        "    assert helper() == 3\n")
    assert _unused_in_src(tmp_path / "src", tests) == ({"helper"}, {"orphan"})
