"""Structural rules read off the source of ``src/gridfire``.

The package stays pure Python with no runtime dependencies:
``pyproject.toml`` declares ``dependencies = []``, and the first test holds the
code to it by reading every import. Source balls are built in one place,
``FireState.source``, so only the engine calls ``grid.ball``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gridfire").glob("*.py"))


def _absolute_imports(tree: ast.AST):
    """(line, top-level module) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    assert SOURCES
    foreign = [
        f"{path.name}:{line}: {module}"
        for path in SOURCES
        for line, module in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if module not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_only_the_engine_calls_ball():
    callers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and "ball" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"engine.py"}
