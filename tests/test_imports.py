"""Every module of the package uses each name it imports.

A stale import (a ``deque`` whose BFS is gone, a budget constant the
module no longer passes) reads as a dependency that is not there.  The
package's ``__init__`` imports in order to re-export, so it is exempt.
"""
import ast
from pathlib import Path

import pytest

import lipfilter

PACKAGE = Path(lipfilter.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_finds_a_stale_import():
    assert unused_imports("import math\nfrom collections import deque\nmath.pi\n") == [
        "line 2: deque"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
