"""Every module of the package reads each name it imports."""

import ast
from pathlib import Path

import pytest

import bookhopf

PACKAGE = Path(bookhopf.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
