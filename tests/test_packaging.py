import os
import subprocess
import sys
from pathlib import Path

from setuptools import find_packages

SRC = Path(__file__).resolve().parent.parent / "src"


def test_find_packages_ships_nervecheck():
    assert "nervecheck" in find_packages(str(SRC))


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "nervecheck.cli", "dn", "--n", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "4 elements" in proc.stdout
