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


def test_package_runs_as_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "nervecheck", "dn", "--n", "2"],
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
    "d_via_under_category": "under-category oracle of build_d",
    "rho_fully_faithful": "order embedding of the pullback pairing",
    "superior_closed_form": "closed form of the superior faces",
    "sn_cells": "boundary sweep that boundary_functor is checked against",
    "ComplexBackend": "simplicial set of a complex, the SimplexTable fixture",
}

# Methods and properties of the package that src/ never names.  Each is a
# fixture that a test reads, except Parser.error, which argparse calls.
UNNAMED_METHODS = {
    "Complex.euler_characteristic": "alternating count, checked against the Betti numbers",
    "Geometry.distance": "taxicab metric, checked against path length in the Hasse diagram",
    "Geometry.atomic": "unit coordinate steps, checked to be exactly the covers",
    "Parser.error": "argparse calls it on a bad command line",
    "Poset.chain_tuple": "a chain in poset order, read by tests and the flag-model oracle",
    "Poset.leq": "relation as a matrix, read by tests and perfbench/gen_n5_sizes.py",
}


def _is_suite_builder(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_suite" for d in node.decorator_list)


def _names_in(paths):
    """(every name paths use, the names they use as attributes)."""
    named, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return named | attributes, attributes


def _uses(name, names):
    """Whether a defined name is used: a method only as an attribute."""
    every, attributes = names
    owner, _, bare = name.rpartition(".")
    return bare in (attributes if owner else every)


def _defined_names(path):
    """Module-level names, and Class.method for the methods and properties
    of module-level classes; dunder methods are left out, as Python calls
    them by their protocols."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not _is_suite_builder(node):
                yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _unused_in_src(src, tests):
    """Names that the packages under src define (_defined_names) and src
    never uses besides their definitions, split into (named by tests,
    named nowhere); a method counts as used only where it is named as an
    attribute, and suite builders register by decorator."""
    in_src = _names_in(sorted(src.glob("**/*.py")))
    in_tests = _names_in(sorted(tests.glob("*.py")))
    unused = {name for path in sorted(src.glob("*/*.py"))
              for name in _defined_names(path) if not _uses(name, in_src)}
    named_by_tests = {name for name in unused if _uses(name, in_tests)}
    return named_by_tests, unused - named_by_tests


def test_no_dead_helpers_in_package():
    test_only, dead = _unused_in_src(SRC, TESTS)
    methods = {name for name in test_only | dead if "." in name}
    assert sorted(dead - methods) == []
    assert sorted(test_only - methods) == sorted(TEST_ONLY)
    assert sorted(methods) == sorted(UNNAMED_METHODS)


def test_scan_flags_a_helper_only_a_test_names(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "LIMIT = 3\n\n\nclass Box:\n    def __len__(self):\n        return LIMIT\n\n"
        "    def size(self):\n        return len(self)\n\n"
        "    def spare(self):\n        return 0\n\n\n"
        "def used():\n    return Box().size()\n\n\n"
        "def helper():\n    return used()\n\n\ndef orphan():\n    return 0\n")
    # a bare name spare elsewhere does not use the method Box.spare
    (pkg / "cli.py").write_text("from .mod import used\n\nspare = used()\nprint(spare)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg.mod import helper\n\n\ndef test_helper():\n"
        "    assert helper() == 3\n")
    assert _unused_in_src(tmp_path / "src", tests) == ({"helper"}, {"orphan", "Box.spare"})


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # under the repo's warning filters, a failing @given test is reported and
    # the session goes on: the import its report makes warns, and must not
    # become an INTERNALERROR
    (tmp_path / "test_case.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_passes():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_case.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


# numpy is blocked in the child: any import of it raises ImportError.
_WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.argv = ['nervecheck'] + sys.argv[1:]\n"
    "runpy.run_module('nervecheck.cli', run_name='__main__')\n")


def test_cli_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for args in (["dn", "--n", "4"], ["verify", "lemma-close"]):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)


def test_numpy_is_named_nowhere_else():
    paths = [*sorted(SRC.glob("**/*.py")), *sorted(TESTS.glob("*.py")),
             TESTS.parent / "pyproject.toml"]
    named = [str(p) for p in paths
             if p != Path(__file__).resolve() and "numpy" in p.read_text()]
    assert named == []
