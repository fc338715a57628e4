"""Directed weighted road network with charger nodes and a mobile-charger cycle.

The graph holds exactly the declared nodes and arcs. Repeat visits to a
charger (static station or cycle point of the mobile charger) are bounded by
counting: :meth:`RoadGraph.visit_cap` allows ``visit_limit`` visits at a
charger and one everywhere else, and the oracle, the verifier and the
mobile charger's pass budget all read that rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import attrgetter

from .energy import VehicleParams, segment_energy


class GraphError(ValueError):
    """Raised for inconsistent graph descriptions or illegal queries."""


@dataclass(frozen=True, slots=True)
class ArcAttr:
    drive_time_s: float
    energy_kwh: float
    length_m: float

    def __post_init__(self):
        # chained comparisons, so NaN and infinities fail them too
        if not 0 < self.drive_time_s < math.inf:
            raise GraphError(f"arc drive time must be positive and finite, "
                             f"got {self.drive_time_s}")
        if not 0 <= self.energy_kwh < math.inf:
            raise GraphError(f"arc energy must be nonnegative and finite, got {self.energy_kwh}")
        if not 0 < self.length_m < math.inf:
            raise GraphError(f"arc length must be positive and finite, got {self.length_m}")


# the ArcAttr field each routing weight reads
_COST_FIELDS = {"time": "drive_time_s", "energy": "energy_kwh"}


def _cost_field(weight: str) -> str:
    field_name = _COST_FIELDS.get(weight)
    if field_name is None:
        raise GraphError(f"unknown weight {weight!r}")
    return field_name


class RoadGraph:
    """Immutable road network. Build through :func:`build_graph` or :func:`load_graph`.

    The nodes have one dense numbering: ``order`` holds the node ids sorted,
    and ``index[node]`` is a node's position in it. Position order is id
    order, so a tie broken by the smaller position is broken by the smaller
    id. Shortest-path search works on positions: besides the arcs the graph
    keeps one cost table per (weight, direction) (:meth:`cost_table`), one
    table of head positions per direction (:meth:`head_table`) and one
    uniform cost per weight (:meth:`uniform_cost`), each built on first use,
    and ``shared_attr``, the one ``ArcAttr`` object all arcs carry, if they do.
    Every path cache on the graph reads the same tables, so a graph shared
    across runs builds each at most once.
    """

    def __init__(self, nodes, arcs, scs_nodes, med_points, visit_limit, entries):
        check_visit_limit(visit_limit)
        self.nodes = frozenset(nodes)
        self.arcs = arcs  # a dict of its own, from build_graph or load_graph
        self.scs_nodes = tuple(sorted(scs_nodes))
        self.med_points = tuple(med_points)
        self.visit_limit = visit_limit
        self.entries = tuple(entries)
        self._chargers = frozenset(self.scs_nodes) | frozenset(self.med_points)
        adj = {n: [] for n in self.nodes}
        for (i, j), attr in self.arcs.items():
            adj[i].append((j, attr))
        self._adj = {n: tuple(sorted(out, key=lambda e: e[0])) for n, out in adj.items()}
        self.order = tuple(sorted(self.nodes))
        self.index = {n: k for k, n in enumerate(self.order)}
        self._tables = {}  # (weight, reverse) -> cost table
        self._heads = {}  # reverse -> head table
        self._uniform = {}  # weight -> uniform cost
        # the one ArcAttr object every arc carries, as load_graph gives the arcs of one spec,
        # else None: equal objects are not enough, as == takes -0.0 for 0.0 and 1 for 1.0,
        # which a battery level folded from them tells apart
        first = next(iter(self.arcs.values()), None)
        self.shared_attr = first if all(attr is first for attr in self.arcs.values()) else None

    # -- queries ------------------------------------------------------------

    def arc(self, i, j):
        return self.arcs.get((i, j))

    def neighbors(self, i):
        """Outgoing (node, ArcAttr) pairs sorted by node id."""
        return self._adj[i]

    def _rows(self, reverse: bool, entry) -> tuple:
        """A tuple indexed by position whose row ``k`` holds ``entry(nbr_pos, attr)`` for the
        arcs out of node ``order[k]``, or into it when ``reverse``, by ``nbr_pos``.

        No row is sorted: a forward row maps the node's adjacency, which is
        in id order and so in position order, and the reverse rows fill in
        order as the tails are walked in position order.
        """
        index, adj = self.index, self._adj
        if reverse:
            rows = [[] for _ in self.order]
            for k, tail in enumerate(self.order):
                for head, attr in adj[tail]:
                    rows[index[head]].append(entry(k, attr))
            return tuple(map(tuple, rows))
        return tuple(tuple(entry(index[head], attr) for head, attr in adj[tail])
                     for tail in self.order)

    def cost_table(self, weight: str, reverse: bool = False) -> tuple:
        """Arc costs by node position, for shortest-path search under ``weight``.

        A tuple indexed by position (see ``index``). Row ``k`` holds
        ``(nbr_pos, cost, ArcAttr)`` for the arcs out of node ``order[k]``,
        or into it when ``reverse``, sorted by ``nbr_pos`` and so by
        neighbour id. The cost is the arc's drive time for ``"time"`` and
        its energy for ``"energy"``. Built once per (weight, direction) and
        then shared.
        """
        key = (weight, reverse)
        table = self._tables.get(key)
        if table is None:
            field_name = _cost_field(weight)
            table = self._tables[key] = self._rows(
                reverse, lambda pos, attr: (pos, getattr(attr, field_name), attr))
        return table

    def head_table(self, reverse: bool = False) -> tuple:
        """The first column of both weights' cost tables in that direction: row ``k`` holds
        the ``nbr_pos`` of each arc out of node ``order[k]``, or into it when ``reverse``,
        in :meth:`cost_table`'s order. An arc's head does not depend on its cost, so one
        table per direction serves both weights. Built once per direction."""
        table = self._heads.get(reverse)
        if table is None:
            table = self._heads[reverse] = self._rows(reverse, lambda pos, attr: pos)
        return table

    def uniform_cost(self, weight: str):
        """The one cost all arcs share under ``weight``, or None when their costs differ
        (or the graph has no arcs). Computed once per weight.

        On such a graph a node ``h`` arcs from the source is exactly ``S(h)``
        away, where ``S(0) = 0.0`` and ``S(h) = S(h-1) + c`` in floats: every
        ``h``-arc path adds ``c`` to ``0.0`` the same ``h`` times in the same
        order, and as ``c`` is nonnegative and a float sum ``x + c`` never
        falls as ``x`` grows, ``S`` never falls as ``h`` grows, so the fewest
        arcs win. A breadth-first search by arc count over :meth:`head_table`
        then gives the shortest-path distances bit for bit
        (``routing._dijkstra_dist``). ``0.0`` and ``-0.0`` count as one cost:
        from a start of ``0.0`` they add alike.
        """
        if weight not in self._uniform:
            costs = list(map(attrgetter(_cost_field(weight)), self.arcs.values()))
            self._uniform[weight] = \
                costs[0] if costs and costs.count(costs[0]) == len(costs) else None
        return self._uniform[weight]

    def visit_cap(self, node) -> int:
        """How often a walk may visit ``node``: ``visit_limit`` at a charger, else 1."""
        return self.visit_limit if node in self._chargers else 1

    def med_cycle_segments(self):
        """Arcs (i, j) around the mobile-charger cycle in order, wrapping to the start."""
        pts = self.med_points
        return list(zip(pts, pts[1:] + pts[:1]))


# by default a walk may reach each charger twice, so an EV can come back once and a ride wrap
# once round the cycle, while the oracle, counting each charger this often, stays small
VISIT_LIMIT_DEFAULT = 2
# MedState.ride slices max_passes * len(segments) segments off the cycle and may walk them
# all: far below islice's limit of sys.maxsize, and few enough for a ride to end
VISIT_LIMIT_MAX = 1000


def check_visit_limit(visit_limit):
    """A GraphError unless ``visit_limit``, the bound on repeat charger visits, is an int in
    [1, :data:`VISIT_LIMIT_MAX`]."""
    if not (isinstance(visit_limit, int) and visit_limit >= 1):
        raise GraphError("visit_limit must be an integer >= 1")
    if visit_limit > VISIT_LIMIT_MAX:
        raise GraphError(f"visit_limit must be at most {VISIT_LIMIT_MAX}")


def _checked_ids(nodes, arcs, scs, med_cycle, entries):
    """A graph's ids after every structural check, as ``(nodes, scs, med_cycle, entries)``.

    ``med_cycle`` is a closed walk: consecutive points (including the wrap
    back to the first) must be arcs, and a repeated closing point is dropped.
    No ``entries`` means every node but the chargers, in id order.
    """
    nodes = tuple(nodes)
    declared = frozenset(nodes)
    if len(declared) != len(nodes):
        raise GraphError("duplicate node ids")
    for (i, j) in arcs:
        if i == j:
            raise GraphError(f"self arc ({i},{j}) not allowed")
        if i not in declared or j not in declared:
            raise GraphError(f"arc ({i},{j}) references undeclared node")
    scs = tuple(scs)
    if not set(scs) <= declared:
        raise GraphError("static station not among declared nodes")
    med_cycle = tuple(med_cycle)
    if len(med_cycle) > 1 and med_cycle[0] == med_cycle[-1]:
        med_cycle = med_cycle[:-1]
    if len(set(med_cycle)) != len(med_cycle):
        raise GraphError("mobile-charger cycle repeats a point")
    if not set(med_cycle) <= declared:
        raise GraphError("mobile-charger cycle point not among declared nodes")
    if len(med_cycle) == 1:
        raise GraphError("mobile-charger cycle needs at least two points")
    for i, j in zip(med_cycle, med_cycle[1:] + med_cycle[:1]):
        if (i, j) not in arcs:
            raise GraphError(f"mobile-charger cycle is not closed: missing arc ({i},{j})")
    if set(scs) & set(med_cycle):
        raise GraphError("a node cannot be both a static station and a cycle point")
    if entries is None:
        chargers = set(scs) | set(med_cycle)
        entries = tuple(n for n in sorted(nodes) if n not in chargers)
    else:
        entries = tuple(entries)
        if not set(entries) <= declared:
            raise GraphError("entry point not among declared nodes")
    return nodes, scs, med_cycle, entries


def build_graph(nodes, arcs, scs_list=(), med_cycle=(), visit_limit: int = VISIT_LIMIT_DEFAULT,
                entries=None) -> RoadGraph:
    """Assemble an immutable :class:`RoadGraph` from the declared nodes and arcs.

    ``arcs`` maps (i, j) to :class:`ArcAttr`, and the ids pass :func:`_checked_ids`.
    ``visit_limit`` bounds repeat visits to each charger (:meth:`RoadGraph.visit_cap`).
    """
    nodes, scs, med_cycle, entries = _checked_ids(nodes, arcs, scs_list, med_cycle, entries)
    return RoadGraph(nodes, dict(arcs), scs, med_cycle, visit_limit, entries)


# -- document shapes: a reader declares each block's keys, key -> kind, a pair (name, read)
# whose read converts a JSON value or raises, and reads the block through read_block before it
# uses any value, so a bad shape is the reader's own error, "<block> <key>: ..."


def _is(*types):
    def read(value):
        if isinstance(value, types):
            return value
        raise TypeError
    return read


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():  # NaN and infinities too
        raise ValueError
    return int(value)


def _ids(ids) -> list:  # ids are compared and sorted: all numbers or all strings
    kinds = set(map(type, OBJECTS[1](ids)))
    if kinds <= {int, float, bool} or kinds <= {str}:
        return ids
    raise TypeError


AS_IS = ("anything", lambda v: v)
OBJECT = ("an object", _is(dict))
OBJECTS = ("a list of objects", _is(list))  # each entry read as a block of its own
NUMBER = ("a number", float)  # numeric strings too, as float reads them
INTEGER = ("an integer", _integer)
STRING = ("a string", _is(str))
NODE_ID = ("a node id", _is(int, float, str))
NODE_IDS = ("a list of node ids, all numbers or all strings", _ids)


def or_null(kind: tuple) -> tuple:
    """``kind``, or a JSON null read as None."""
    return f"{kind[0]}, or null", lambda v: None if v is None else kind[1](v)


def read_block(block, what: str, keys: dict, required=(), error=GraphError, closed=False,
               build=None):
    """``build(values)``, or ``values`` without a ``build``: each key of the JSON object
    ``block`` that ``keys`` declares, read by its kind; a key declared None is taken and
    never read. A block that is not an object, a value of the wrong kind, a missing
    ``required`` key, an undeclared key when ``closed`` (else skipped) or a ValueError of
    ``build`` raises ``error``."""
    if not isinstance(block, dict):
        raise error(f"{what} must be an object")
    values = {}
    for key, value in block.items():
        kind = keys.get(key, closed)  # undeclared: an error when closed, else skipped
        if kind is True:
            raise error(f"{what} has an unknown key {key!r}")
        if kind:
            try:
                values[key] = kind[1](value)
            except (TypeError, ValueError, KeyError, OverflowError):
                raise error(f"{what} {key}: must be {kind[0]}, got {value!r:.60}") from None
    for key in required:
        if key not in values:
            raise error(f"{what} lacks required key {key!r}")
    try:
        return values if build is None else build(values)
    except ValueError as exc:  # a value the built type rejects
        raise error(f"{what}: {exc}") from None


def read_entries(entries: list, what: str, keys: dict, required=(), error=GraphError) -> list:
    """:func:`read_block` on each entry of ``entries``, named ``<what> entry #k``."""
    return [read_block(e, f"{what} entry #{k}", keys, required, error)
            for k, e in enumerate(entries)]


def read_params(block, what: str, params, error=GraphError):
    """The dataclass ``params`` from a JSON object holding a number for each of its fields."""
    names = [f.name for f in fields(params)]
    return read_block(block, what, dict.fromkeys(names, NUMBER), names, error, True,
                      lambda values: params(**values))


# -- JSON schema ------------------------------------------------------------
#
# {
#   "nodes":     [{"id": 0, "x": 0.0, "y": 0.0}, ...]      (x/y optional)
#   "arcs":      [{"i": 0, "j": 1, "length_m": 2500, "speed_mps": 15,
#                  "energy_kwh": 0.2}, ...]                 (energy optional)
#   "scs":       [22],
#   "med_cycle": [44, 45, 55, 54],
#   "entries":   [0, 1, ...]                                (optional)
# }
#
# Arc drive time is length/speed. When an arc omits energy_kwh it is priced
# from the vehicle parameters at load time, so routing sees plain numbers.

# a node is an id or {"id": ..., "x": ..., "y": ...}; x/y are not read
_GRAPH_KEYS = {"nodes": ("a list of node ids or objects with an id", lambda nodes: _ids(
    [n["id"] if isinstance(n, dict) else n for n in OBJECTS[1](nodes)])),
    "arcs": OBJECTS, "scs": NODE_IDS, "med_cycle": NODE_IDS, "entries": or_null(NODE_IDS)}
_ARC_KEYS = {"i": NODE_ID, "j": NODE_ID, "length_m": NUMBER, "speed_mps": NUMBER,
             "energy_kwh": NUMBER}


# the energy of an arc spec without "energy_kwh", kept apart from a null one
_NO_ENERGY = object()


@dataclass(frozen=True)
class GraphSpec:
    """A graph document after every check, holding nothing of a vehicle.

    :func:`parse_graph` makes it, and :meth:`priced` prices its arcs.
    Arc ``arcs[n]``, a pair ``(i, j)``, has ``specs[arc_specs[n]]``: its
    length and speed as floats and its :class:`ArcAttr`, None without an
    energy. ``specs`` holds each distinct spec some arc uses once, in the
    order the arcs first use them, so a document and its :meth:`to_json`
    parse to equal values. Ids compare by value (``1 == 1.0``);
    ``id_types``, the type of every id, computed on first use, tells such
    graphs apart.
    """

    arcs: tuple
    arc_specs: tuple
    specs: tuple
    nodes: tuple
    scs: tuple
    med_cycle: tuple
    entries: tuple

    @cached_property
    def id_types(self) -> tuple:
        return tuple(map(type, chain(self.nodes, chain.from_iterable(self.arcs), self.scs,
                                     self.med_cycle, self.entries)))

    def priced(self, vehicle: VehicleParams | None) -> list:
        """One :class:`ArcAttr` per spec; a spec without an energy is priced for ``vehicle``.

        A GraphError names the first arc of a spec the vehicle cannot price
        to a finite energy, a drag term that overflows a float included.
        """
        if vehicle is None and any(attr is None for *_, attr in self.specs):
            raise GraphError("an arc lacks energy_kwh and no vehicle was given")
        attrs = []
        for n, (length, speed, attr) in enumerate(self.specs):
            try:
                attrs.append(attr or ArcAttr(length / speed, segment_energy(
                    vehicle, speed, length / speed), length))
            except (GraphError, OverflowError):  # only the energy is left to check
                i, j = self.arcs[self.arc_specs.index(n)]
                raise GraphError(f"arc ({i},{j}) costs the vehicle a non-finite energy") from None
        return attrs

    def to_json(self) -> dict:
        """The normalized document: no node ``x``/``y``, no repeated arc, floats, all entries."""
        keys = ("length_m", "speed_mps", "energy_kwh")  # a missing energy is left out
        specs = [dict(zip(keys, (length, speed) if attr is None else
                          (length, speed, attr.energy_kwh))) for length, speed, attr in self.specs]
        arcs = [{"i": i, "j": j, **specs[k]} for (i, j), k in zip(self.arcs, self.arc_specs)]
        return {"nodes": [{"id": n} for n in self.nodes], "arcs": arcs, "scs": list(self.scs),
                "med_cycle": list(self.med_cycle), "entries": list(self.entries)}


def _arc_spec(i, j, length, speed, energy) -> tuple:
    """The arc (i, j)'s length and speed as floats and its ArcAttr, None if it lacks an energy."""
    length, speed = float(length), float(speed)
    energy = None if energy is _NO_ENERGY else float(energy)
    if speed <= 0:
        raise GraphError(f"arc ({i},{j}) has nonpositive speed")
    # an arc the vehicle is to price is checked with a stand-in energy of 0
    attr = ArcAttr(length / speed, 0.0 if energy is None else energy, length)
    return length, speed, None if energy is None else attr


def read_json(path):
    """The JSON document in the file at ``path``; a GraphError if it cannot be read or
    holds no JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise GraphError(f"{path} nests its JSON too deeply to read") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise GraphError(f"cannot read {path}: {reason}") from None


def parse_graph(doc) -> GraphSpec:
    """Check a parsed JSON document (or a path to one) and keep it as a :class:`GraphSpec`."""
    if isinstance(doc, (str, bytes)):
        doc = read_json(doc)
    doc = read_block(doc, "graph", _GRAPH_KEYS, ("nodes", "arcs"))
    # each distinct raw (length_m, speed_mps, energy_kwh) is converted and
    # checked once, and raw values that convert alike (10, 10.0 and "10")
    # share one spec; a spec that fails raises before it is stored, and an arc
    # that fails is checked against _ARC_KEYS, so every bad arc names itself
    arcs, specs, seen, by_value = {}, [], {}, {}
    for k, a in enumerate(doc["arcs"]):
        try:
            i, j = a["i"], a["j"]
            raw = (a["length_m"], a["speed_mps"], a.get("energy_kwh", _NO_ENERGY))
            n = seen.get(raw)
            if n is None:
                spec = _arc_spec(i, j, *raw)
                n = seen[raw] = by_value.setdefault(spec, len(specs))
                if n == len(specs):
                    specs.append(spec)
            arcs[(i, j)] = n
        except (TypeError, ValueError, KeyError, OverflowError):
            read_block(a, f"graph arc #{k}", _ARC_KEYS, ("i", "j", "length_m", "speed_mps"))
            raise  # the arc has its shape, so a value of it is out of range
    # renumber the specs the arcs use in the order they first use them; a
    # spec only an overridden repeat of an arc used is dropped
    used = {n: k for k, n in enumerate(dict.fromkeys(arcs.values()))}
    return GraphSpec(tuple(arcs), tuple(map(used.__getitem__, arcs.values())),
                     tuple(specs[n] for n in used), *_checked_ids(
                         doc["nodes"], arcs, doc.get("scs", ()), doc.get("med_cycle", ()),
                         doc.get("entries")))


def load_graph(doc, vehicle: VehicleParams | None = None,
               visit_limit: int = VISIT_LIMIT_DEFAULT) -> RoadGraph:
    """A graph from a :class:`GraphSpec`, a JSON document or a path; ``vehicle`` prices arcs."""
    spec = doc if isinstance(doc, GraphSpec) else parse_graph(doc)
    attrs = spec.priced(vehicle)
    arcs = dict(zip(spec.arcs, map(attrs.__getitem__, spec.arc_specs)))
    return RoadGraph(spec.nodes, arcs, spec.scs, spec.med_cycle, visit_limit, spec.entries)


def grid_doc(rows: int, cols: int, arc_len_m: float = 2500.0, speed_mps: float = 15.0,
             scs=(), med_cycle=()) -> dict:
    """JSON document for a rows x cols grid with bidirectional uniform arcs.

    Node ids are row-major; entry points default to the grid boundary,
    mimicking side roads feeding the district.
    """
    if rows < 2 or cols < 2:
        raise GraphError("grid needs at least 2 rows and 2 columns")
    nodes = [{"id": r * cols + c, "x": c * arc_len_m, "y": r * arc_len_m}
             for r in range(rows) for c in range(cols)]
    arcs = []
    for r in range(rows):
        for c in range(cols):
            n = r * cols + c
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < rows and c2 < cols:
                    m = r2 * cols + c2
                    arcs.append({"i": n, "j": m, "length_m": arc_len_m, "speed_mps": speed_mps})
                    arcs.append({"i": m, "j": n, "length_m": arc_len_m, "speed_mps": speed_mps})
    boundary = [r * cols + c for r in range(rows) for c in range(cols)
                if r in (0, rows - 1) or c in (0, cols - 1)]
    chargers = set(scs) | set(med_cycle)
    return {
        "nodes": nodes,
        "arcs": arcs,
        "scs": list(scs),
        "med_cycle": list(med_cycle),
        "entries": [n for n in boundary if n not in chargers],
    }
