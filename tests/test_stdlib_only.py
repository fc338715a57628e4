"""The runtime is standard-library only: ``src/medsim`` imports nothing else.

This also keeps the package from importing the test suite's per-arc
reference walks back from ``tests/``.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "medsim").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the absolute imports in ``tree``; relative ones are medsim's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "routing.py", "sim.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_medsim(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    foreign = sorted({name for name in imported_modules(tree)
                      if name != "medsim" and name not in sys.stdlib_module_names})
    assert foreign == []
