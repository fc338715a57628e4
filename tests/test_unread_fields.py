"""Every dataclass field in ``src/medsim`` is read, and every definition used, in ``src/medsim``.

A stored field that the package never reads either restates a fact another
field holds or configures nothing; either way it should go. A read is any
``x.name`` load, whatever ``x`` is, so the check can miss a dead field that
shares its name with a live one, but never flags a live field. Functions,
methods and classes get the same check by name: each must be loaded or
imported somewhere outside its own body, so one that only calls itself, or
that only the tests call, is flagged.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "medsim").glob("*.py"))

# fields only code outside the package reads, each with its reader
READ_OUTSIDE = [
    ("RunMetrics", "infrastructure"),  # the final ledgers, read by the audit tests
]

# definitions only code outside the package uses, each with its user
USED_OUTSIDE = [
    ("PathCache", "fwd"),  # perfbench's tracer wraps it (ROADMAP item 9)
    ("Scenario", "to_json"),  # the library's scenario writer, in the README; the tests use it
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


def names_used(node) -> Counter:
    """How often each name is loaded (``name`` or ``x.name``) or imported under ``node``."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def definitions(tree, owner=None):
    """``(owner class or None, definition node)`` for each def and class in ``tree``, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield owner, node
        yield from definitions(node, node.name if isinstance(node, ast.ClassDef) else owner)


def test_definitions_found():
    found = {(owner, d.name) for tree in trees() for owner, d in definitions(tree)}
    assert {("MedState", "waiting"), ("MedState", "ride"), (None, "MedState"),
            ("PathCache", "fwd")} <= found


def test_every_definition_is_used():
    parsed = trees()
    used = sum(map(names_used, parsed), Counter())
    unused = sorted((owner, d.name) for tree in parsed for owner, d in definitions(tree)
                    if not (d.name.startswith("__") and d.name.endswith("__"))
                    and used[d.name] == names_used(d)[d.name])
    assert unused == sorted(USED_OUTSIDE)


def test_the_router_reads_no_charger_budget():
    # the mobile charger owns its ride: how far a run may go and what each
    # pass has left are MedState's to work out, so the router, which prices
    # and walks the rides, reads none of the budget's inputs or ledgers
    tree = ast.parse((ROOT / "src" / "medsim" / "routing.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & {"battery_kwh", "max_passes", "pass_dispensed", "segment_bookings"} == set()
