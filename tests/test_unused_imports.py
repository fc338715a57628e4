"""Every module in ``src/medsim`` and ``tests/`` reads each name it imports.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for folder in (ROOT / "src" / "medsim", ROOT / "tests")
                 for p in folder.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names that the imports in ``tree`` bind; ``from __future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_modules_found():
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert {"src/medsim/sim.py", "tests/conftest.py", "tests/test_sim.py"} <= names


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(imported_names(tree)) - read) == []
