"""Static checks over the package source, with the standard library only."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "nestslice")
# __init__ imports names to re-export them
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "from dataclasses import dataclass, field\nimport os\nfield()\n"
    assert unused_imports(src) == [(1, "dataclass"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def print_calls(source: str) -> list:
    """Lines that call the builtin ``print``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "print")


def test_detects_a_print_call():
    src = "import logging\nprint('x')\nlogging.info('y')\nf(print)\n"
    assert print_calls(src) == [2]


@pytest.mark.parametrize(
    "path", sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                   if os.path.basename(p) != "cli.py"),
    ids=os.path.basename)
def test_only_the_cli_prints(path):
    # the library reports through logging; only the CLI writes to stdout
    with open(path) as fh:
        assert print_calls(fh.read()) == []
