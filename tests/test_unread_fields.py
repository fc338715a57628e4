"""Every dataclass field in ``src/medsim`` is read as an attribute somewhere in ``src/medsim``.

A stored field that the package never reads either restates a fact another
field holds or configures nothing; either way it should go. A read is any
``x.name`` load, whatever ``x`` is, so the check can miss a dead field that
shares its name with a live one, but never flags a live field.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "medsim").glob("*.py"))

# fields only code outside the package reads, each with its reader
READ_OUTSIDE = [
    ("RunMetrics", "infrastructure"),  # the final ledgers, read by the audit tests
]


def is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields(tree):
    """``(class, field)`` for each annotated class-level name of each dataclass in ``tree``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.target.id


def trees():
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES]


def test_dataclasses_found():
    fields = {f for tree in trees() for f in dataclass_fields(tree)}
    assert {("EvRecord", "travel_s"), ("RouteAssignment", "legs"),
            ("ArcAttr", "drive_time_s")} <= fields


def test_every_field_is_read():
    parsed = trees()
    read = {node.attr for tree in parsed for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted((cls, name) for tree in parsed for cls, name in dataclass_fields(tree)
                    if name not in read)
    assert unread == sorted(READ_OUTSIDE)
