"""Every module of the package reads each name it imports, and each process loads only what it runs."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bookhopf

PACKAGE = Path(bookhopf.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
RATIONALS = {"fractions", "decimal", "numbers"}  # every coefficient a command or the tables build is an int


def unused_imports(tree):
    """Names bound by import statements that the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` (the
    re-exports of ``__init__``) count as used.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os, re\nfrom a import b, c as d\nre.sub\n__all__ = ['b']\n")
    assert unused_imports(tree) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


# -- what each process loads ------------------------------------------------------------

CHILD = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["bookhopf", *ARGV]
try:
    runpy.run_module("bookhopf.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""


def loaded_by(code):
    """The modules a fresh interpreter loads to run ``code`` (last line of its stderr), beyond those it starts with."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv,runs,skips", [
    (["classify", "--p", "3", "--s", "1"], "bookhopf.mpi", "bookhopf.axioms"),
    (["table", "--p", "3"], "bookhopf.mpi", "bookhopf.axioms"),
    (["verify", "--p", "3", "--s", "1"], "bookhopf.axioms", "bookhopf.mpi"),
    (["verify", "--p", "3", "--s", "0", "--permissive"], "bookhopf.axioms", "bookhopf.mpi"),
    (["verify", "--p", "3", "--all-s"], "bookhopf.axioms", "bookhopf.lanes"),  # every proof holds: no lane code
    (["verify", "--p", "3", "--s", "0", "--permissive"], "bookhopf.lanes", "bookhopf.mpi"),
], ids=["classify", "table", "verify", "verify-s0", "verify-proved", "verify-s0-lanes"])
def test_a_command_loads_only_the_modules_it_runs(argv, runs, skips):
    loaded = loaded_by(CHILD.replace("ARGV", repr(argv)))
    assert runs in loaded and skips not in loaded
    assert "dataclasses" not in loaded and not loaded & RATIONALS


def test_the_algebra_alone_loads_its_three_modules():
    loaded = loaded_by(
        "import sys; before = set(sys.modules); import bookhopf; bookhopf.BookAlgebra(7, 3)\n"
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    assert not loaded & RATIONALS
    loaded = {name for name in loaded if name.partition(".")[0] == "bookhopf"}
    assert loaded == {"bookhopf", "bookhopf.cyclotomic", "bookhopf.pbw", "bookhopf.hopf"}


def test_every_public_name_resolves_to_its_module():
    for name in bookhopf.__all__:
        value = getattr(bookhopf, name)
        assert value.__module__.startswith("bookhopf.") and getattr(import_module(value.__module__), name) is value
    namespace = {}
    exec("from bookhopf import *", namespace)
    assert all(namespace[name] is getattr(bookhopf, name) for name in bookhopf.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        bookhopf.no_such_name
