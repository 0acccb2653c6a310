import ast
import importlib
import os
import pkgutil
import re
import runpy
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


def test_every_imported_name_is_used():
    # an import left behind by a deletion, while its owner still defines the name,
    # passes the __all__ checks above; __init__ imports only to re-export
    for path in sorted(Path(minkvox.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant):  # the strings of __all__
                used.add(node.value)
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_function_leaves_a_parameter_unused():
    # a parameter that a refactor leaves behind, such as a spacing no longer read,
    # still takes every call; a nested function's read of it counts, and a method's
    # self, which an override such as argparse's error() takes unread, is exempt
    unused = []
    for path in sorted(Path(minkvox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a]}
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
                unused += [(path.name, node.lineno, p) for p in sorted(params - read - {"self"})]
    assert not unused


def test_sources_parse_as_python_3_10():
    # pyproject's floor is Python 3.10: the grammar of every source, best effort, as
    # ast checks syntax only; a library API newer than 3.10 is not caught
    for root in ("src/minkvox", "tests", "perfbench"):
        for path in sorted((SRC.parent / root).rglob("*.py")):
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-m", "minkvox", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: minkvox")
    # the same entry point in process, where its exit code is seen as SystemExit; an
    # earlier import of the module would make runpy warn
    monkeypatch.delitem(sys.modules, "minkvox.__main__", raising=False)
    monkeypatch.setattr(sys, "argv", ["minkvox", "frobnicate"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("minkvox", run_name="__main__")
    assert exit_.value.code == 1
    assert capsys.readouterr().err.startswith("minkvox: error:")


def test_readme_python_examples_run_in_order(capsys):
    # each block builds on the names of the blocks before it, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```$", (SRC.parent / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    names = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), names)
    assert capsys.readouterr().out


def test_console_script_names_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["minkvox"]
    assert target == "minkvox.cli:main"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
