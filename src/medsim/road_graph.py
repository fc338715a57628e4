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
from dataclasses import dataclass

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


class RoadGraph:
    """Immutable road network. Build through :func:`build_graph` or :func:`load_graph`.

    The nodes have one dense numbering: ``order`` holds the node ids sorted,
    and ``index[node]`` is a node's position in it. Position order is id
    order, so a tie broken by the smaller position is broken by the smaller
    id. Shortest-path search works on positions: besides the arcs the graph
    keeps one cost table per (weight, direction), built on first use by
    :meth:`cost_table`. Every path cache on the graph reads the same tables,
    so a graph shared across runs builds each at most once.
    """

    def __init__(self, nodes, arcs, scs_nodes, med_points, visit_limit, entries):
        self.nodes = frozenset(nodes)
        self._arcs = dict(arcs)
        self.scs_nodes = tuple(sorted(scs_nodes))
        self.med_points = tuple(med_points)
        self.visit_limit = visit_limit
        self.entries = tuple(entries)
        self._chargers = frozenset(self.scs_nodes) | frozenset(self.med_points)
        adj = {n: [] for n in self.nodes}
        for (i, j), attr in self._arcs.items():
            adj[i].append((j, attr))
        self._adj = {n: tuple(sorted(out, key=lambda e: e[0])) for n, out in adj.items()}
        self.order = tuple(sorted(self.nodes))
        self.index = {n: k for k, n in enumerate(self.order)}
        self._tables = {}

    # -- queries ------------------------------------------------------------

    def arc(self, i, j):
        return self._arcs.get((i, j))

    def neighbors(self, i):
        """Outgoing (node, ArcAttr) pairs sorted by node id."""
        return self._adj[i]

    def cost_table(self, weight: str, reverse: bool = False):
        """Arc costs by node position, for shortest-path search under ``weight``.

        A tuple indexed by position (see ``index``). Row ``k`` holds
        ``(nbr_pos, cost, ArcAttr)`` for the arcs out of node ``order[k]``,
        or into it when ``reverse``, sorted by ``nbr_pos`` and so by
        neighbour id. The cost is the arc's drive time for ``"time"`` and
        its energy for ``"energy"``. Built once per (weight, direction) and
        then shared. No row is sorted: a forward row maps the node's
        adjacency, which is in id order and so in position order, and the
        reverse rows fill in order as the tails are walked in position order.
        """
        key = (weight, reverse)
        table = self._tables.get(key)
        if table is None:
            field_name = _COST_FIELDS.get(weight)
            if field_name is None:
                raise GraphError(f"unknown weight {weight!r}")
            index, adj = self.index, self._adj
            if reverse:
                rows = [[] for _ in self.order]
                for k, tail in enumerate(self.order):
                    for head, attr in adj[tail]:
                        rows[index[head]].append((k, getattr(attr, field_name), attr))
                table = tuple(map(tuple, rows))
            else:
                table = tuple(tuple((index[head], getattr(attr, field_name), attr)
                                    for head, attr in adj[tail])
                              for tail in self.order)
            self._tables[key] = table
        return table

    def visit_cap(self, node) -> int:
        """How often a walk may visit ``node``: ``visit_limit`` at a charger, else 1."""
        return self.visit_limit if node in self._chargers else 1

    @property
    def arcs(self):
        return self._arcs

    def med_cycle_segments(self):
        """Arcs (i, j) around the mobile-charger cycle in order, wrapping to the start."""
        pts = self.med_points
        return [(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))]


def build_graph(nodes, arcs, scs_list=(), med_cycle=(), visit_limit: int = 2,
                entries=None) -> RoadGraph:
    """Assemble an immutable :class:`RoadGraph` from the declared nodes and arcs.

    ``arcs`` maps (i, j) to :class:`ArcAttr` (or its keyword dict).
    ``med_cycle`` is a closed walk: consecutive points (including the wrap
    back to the first) must be arcs. ``visit_limit`` bounds repeat visits to
    each static station and cycle point (see :meth:`RoadGraph.visit_cap`).
    """
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise GraphError("duplicate node ids")
    declared = set(nodes)
    for (i, j) in arcs:
        if i == j:
            raise GraphError(f"self arc ({i},{j}) not allowed")
        if i not in declared or j not in declared:
            raise GraphError(f"arc ({i},{j}) references undeclared node")
    scs_list = list(scs_list)
    if not set(scs_list) <= declared:
        raise GraphError("static station not among declared nodes")
    med_cycle = list(med_cycle)
    if len(med_cycle) > 1 and med_cycle[0] == med_cycle[-1]:
        med_cycle = med_cycle[:-1]
    if len(set(med_cycle)) != len(med_cycle):
        raise GraphError("mobile-charger cycle repeats a point")
    if not set(med_cycle) <= declared:
        raise GraphError("mobile-charger cycle point not among declared nodes")
    if med_cycle:
        if len(med_cycle) < 2:
            raise GraphError("mobile-charger cycle needs at least two points")
        for k, i in enumerate(med_cycle):
            j = med_cycle[(k + 1) % len(med_cycle)]
            if (i, j) not in arcs:
                raise GraphError(f"mobile-charger cycle is not closed: missing arc ({i},{j})")
    if set(scs_list) & set(med_cycle):
        raise GraphError("a node cannot be both a static station and a cycle point")
    if not (isinstance(visit_limit, int) and visit_limit >= 1):
        raise GraphError("visit_limit must be an integer >= 1")

    arcs = {key: attr if isinstance(attr, ArcAttr) else ArcAttr(**attr)
            for key, attr in arcs.items()}
    if entries is None:
        chargers = set(scs_list) | set(med_cycle)
        entries = [n for n in sorted(nodes) if n not in chargers]
    else:
        entries = list(entries)
        if not set(entries) <= declared:
            raise GraphError("entry point not among declared nodes")
    return RoadGraph(nodes, arcs, scs_list, med_cycle, visit_limit, entries)


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
# Arc drive time is length/speed. When an arc omits energy_kwh it is resolved
# from the vehicle parameters at load time, so routing sees plain numbers.


def require_keys(doc, keys, what: str, error=GraphError):
    """Raise ``error`` naming the first of ``keys`` missing from the document ``doc``."""
    for key in keys:
        if key not in doc:
            raise error(f"{what} lacks required key {key!r}")


# the energy of an arc spec without "energy_kwh", kept apart from a null one
_NO_ENERGY = object()


def _arc_attr(i, j, length, speed, energy, vehicle) -> ArcAttr:
    """The arc (i, j) from its raw JSON values; ``vehicle`` prices a missing energy."""
    try:
        length = float(length)
        speed = float(speed)
        energy = None if energy is _NO_ENERGY else float(energy)
    except (TypeError, ValueError):
        raise GraphError(f"arc ({i},{j}) has a non-numeric length, speed or energy") from None
    if speed <= 0:
        raise GraphError(f"arc ({i},{j}) has nonpositive speed")
    dt = length / speed
    if energy is None:
        if vehicle is None:
            raise GraphError(f"arc ({i},{j}) lacks energy_kwh and no vehicle was given")
        energy = segment_energy(vehicle, speed, dt)
    return ArcAttr(dt, energy, length)


def load_graph(doc, vehicle: VehicleParams | None = None, visit_limit: int = 2) -> RoadGraph:
    """Build a graph from a parsed JSON document (or a path to one)."""
    if isinstance(doc, (str, bytes)):
        with open(doc, encoding="utf-8") as fh:
            doc = json.load(fh)
    require_keys(doc, ("nodes", "arcs"), "graph")
    # a node is an id or {"id": ..., "x": ..., "y": ...}; x/y are not read
    nodes = []
    for k, entry in enumerate(doc["nodes"]):
        if isinstance(entry, dict):
            require_keys(entry, ("id",), f"node #{k}")
            entry = entry["id"]
        nodes.append(entry)
    arcs = {}
    # each distinct raw (length_m, speed_mps, energy_kwh) is converted,
    # checked and priced once, and its frozen ArcAttr shared; a spec that
    # fails raises before it is stored, so every bad arc names itself
    built = {}
    for k, a in enumerate(doc["arcs"]):
        require_keys(a, ("i", "j", "length_m", "speed_mps"), f"arc #{k}")
        i, j = a["i"], a["j"]
        spec = (a["length_m"], a["speed_mps"], a.get("energy_kwh", _NO_ENERGY))
        try:
            attr = built.get(spec)
        except TypeError:  # an unhashable value: converted as given, never shared
            attr = _arc_attr(i, j, *spec, vehicle)
        if attr is None:
            attr = built[spec] = _arc_attr(i, j, *spec, vehicle)
        arcs[(i, j)] = attr
    return build_graph(nodes, arcs, doc.get("scs", ()), doc.get("med_cycle", ()),
                       visit_limit=visit_limit, entries=doc.get("entries"))


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
