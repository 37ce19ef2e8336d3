"""Static checks over the package source, with the standard library only."""

import ast
import functools
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "nestslice")
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


def private_definitions(source: str) -> list:
    """(line, name) of each module-level name a module binds by ``def``,
    ``class`` or assignment that starts with one underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names = [node.target.id]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if n.startswith("_") and not n.startswith("__")]
    return found


def read_names(source: str) -> set:
    """Every name a source reads, as a plain name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unread_privates(source: str, read: set) -> list:
    """The private definitions of ``source`` whose names ``read`` lacks."""
    return [(line, n) for line, n in private_definitions(source)
            if n not in read]


def test_detects_an_unread_private_name():
    src = ("_A = 1\n__all__ = []\ndef _f():\n    return _g\n"
           "def _g(): pass\nclass _C: pass\n_D: int = 2\n")
    read = read_names(src) | read_names("m._C\n_D = 3\n")
    assert unread_privates(src, read) == [(1, "_A"), (3, "_f"), (7, "_D")]


@functools.cache
def _read_in_repo() -> set:
    """Every name read in src/, tests/ and perfbench/."""
    read = set()
    for d in ("src", "tests", "perfbench"):
        for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                           recursive=True):
            with open(p) as fh:
                read |= read_names(fh.read())
    return read


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_no_unread_private_names(path):
    # a private name nothing reads is a leftover of a deletion; the module
    # itself is among the readers
    with open(path) as fh:
        assert unread_privates(fh.read(), _read_in_repo()) == []
