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


def _is_suite_builder(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_suite" for d in node.decorator_list)


def test_no_dead_helpers_in_package():
    # a module-level function or class named nowhere in src/ or tests/
    # besides its own def is dead; suite builders register by decorator
    named = set()
    for path in sorted(SRC.glob("**/*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    dead = []
    for path in sorted((SRC / "nervecheck").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not _is_suite_builder(node) and node.name not in named:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []
