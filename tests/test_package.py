import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import minkvox

SRC = Path(minkvox.__file__).resolve().parents[1]


def test_every_module_defines_its_all():
    # a stale __all__ entry makes `from minkvox.<module> import *` raise
    for info in pkgutil.iter_modules(minkvox.__path__):
        module = importlib.import_module(f"minkvox.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_no_relative_import_of_a_private_name():
    # a name one module shares with another is public in its owner
    for path in sorted(Path(minkvox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


def test_names_shared_between_modules_are_in_the_owners_all():
    # a deletion cannot leave a stale import or re-export behind
    for path in sorted(Path(minkvox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                owner = importlib.import_module(f"minkvox.{node.module}")
                unlisted = [a.name for a in node.names
                            if a.name not in getattr(owner, "__all__", ())]
                assert not unlisted, (path.name, node.module, unlisted)


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "minkvox", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: minkvox")


def test_console_script_names_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["minkvox"]
    assert target == "minkvox.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
