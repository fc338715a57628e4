"""Shortest paths and energy-aware route construction.

The router mirrors the two-stage heuristic it reproduces: try the plain
time-shortest path first; when the battery cannot cover it, pick the best
reachable energy point (static station or mobile-charger cycle point), plan
the charge there, and continue, recursing from the exit point while the
remaining leg stays infeasible.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush

from .road_graph import RoadGraph

INFINITE = math.inf
_EPS_TOL = 1e-9
LEG_LIMIT = 4  # charging stops one route may insert


class NoPath(Exception):
    """Target not reachable in the graph."""


class Stranded(Exception):
    """The EV cannot complete its trip with any reachable energy point."""


def _dijkstra_dist(adj, source):
    """Distances from position ``source`` over a cost table (see ``RoadGraph.cost_table``).

    An ``array('d')`` indexed by position, :data:`INFINITE` where a node is
    unreachable. The search runs on a list; the array it returns holds each
    retained map in 8 bytes per node.
    """
    dist = [INFINITE] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue  # stale entry: node was settled at a smaller distance
        for nbr, cost, _ in adj[node]:
            nd = d + cost
            if nd < dist[nbr]:
                dist[nbr] = nd
                heappush(heap, (nd, nbr))
    return array("d", dist)


class CachedPath(tuple):
    """A path's node tuple, carrying its arcs.

    ``attrs`` lists the path's arcs (``ArcAttr``) in path order.
    ``drive_s`` and ``energy_kwh`` are left folds over them in path order,
    so they are bit-identical to a per-arc walk over the graph.
    """


def _cached_path(nodes, attrs):
    path = CachedPath(nodes)
    drive = energy = 0.0
    for attr in attrs:
        drive += attr.drive_time_s
        energy += attr.energy_kwh
    path.drive_s = drive
    path.energy_kwh = energy
    path.attrs = attrs
    return path


class PathCache:
    """Memoized single-source distance maps and path reconstructions.

    One per network, shared by every run on it: the runs on an equal graph
    document, vehicle and visit limit (see ``sim.run``); routing
    repeatedly asks for distances from the same sources (EV positions) and
    to the same targets (chargers, destinations), so the maps are worth
    keeping. It holds only graph-derived data, never ledger or population
    state. The searches read the graph's cost tables, which every cache on
    that graph shares. Queries take node ids; a distance map is an
    ``array('d')`` indexed by node position (``g.index``), with
    :data:`INFINITE` where no path exists.
    """

    def __init__(self, g: RoadGraph):
        self.g = g
        self._fwd = {}
        self._rev = {}
        self._paths = {}

    def fwd(self, source, weight: str = "time"):
        """Distances from ``source`` to every node, by position."""
        key = (source, weight)
        if key not in self._fwd:
            self._fwd[key] = _dijkstra_dist(self.g.cost_table(weight), self.g.index[source])
        return self._fwd[key]

    def rev(self, target, weight: str = "time"):
        """Distances from every node to ``target`` by position (Dijkstra on reversed arcs)."""
        key = (target, weight)
        if key not in self._rev:
            self._rev[key] = _dijkstra_dist(self.g.cost_table(weight, reverse=True),
                                            self.g.index[target])
        return self._rev[key]

    def path(self, source, target, weight: str = "time") -> CachedPath:
        """Minimum-cost path with its arc costs, ties broken lexicographically.

        From a node to itself it is the one-node path with no arcs.
        """
        key = (source, target, weight)
        found = self._paths.get(key)
        if found is None:
            g = self.g
            found = self._paths[key] = (
                _cached_path((source,), ()) if source == target else
                _lex_path(g.cost_table(weight), g.order, g.index[source], g.index[target],
                          self.rev(target, weight)))
        return found


def _lex_path(adj, order, source, target, rev_dist):
    """A minimum-cost path between positions ``source`` != ``target`` over the cost table ``adj``.

    Follows tight arcs (arc cost plus the head's distance to ``target``
    equals the tail's) depth first, smallest neighbour position first, so
    without a dead end the path is the greedy smallest-id walk. Tightness
    is exact float equality, so no step adds slack: the path costs the
    distance, but for the rounding of summing its arcs in the other order.
    A reachable node always has a tight arc: the search set its distance
    to ``d + cost`` over one arc, and float addition commutes. Zero-cost
    arcs can lead that walk to a node whose tight arcs all return to visited
    nodes; the search then backs up and tries the next tight arc. The path
    comes back as node ids, mapped through ``order``.
    """
    if rev_dist[source] == INFINITE:
        raise NoPath(f"no path from {order[source]} to {order[target]}")
    path = [source]
    attrs = []
    visited = {source}
    pending = [iter(adj[source])]  # per path node: its arcs not yet tried
    while pending:
        remaining = rev_dist[path[-1]]
        for nbr, cost, attr in pending[-1]:
            # an unreachable head has an infinite distance and is never tight
            if nbr not in visited and cost + rev_dist[nbr] == remaining:
                break
        else:  # dead end: back up one node
            pending.pop()
            path.pop()
            if attrs:
                attrs.pop()
            continue
        path.append(nbr)
        attrs.append(attr)
        if nbr == target:
            return _cached_path([order[k] for k in path], attrs)
        visited.add(nbr)
        pending.append(iter(adj[nbr]))
    raise NoPath(f"path reconstruction from {order[source]} to {order[target]} failed")


def _path_feasible(path: CachedPath, energy_start_kwh: float) -> bool:
    """Whether the battery covers the path arc by arc without running below zero.

    The level is folded over the whole path and compared once, at the end.
    That is the same answer as a comparison after every arc: arc energies
    are finite and nonnegative (``ArcAttr`` rejects anything else), and
    subtracting a nonnegative float never raises a float, so the level
    never rises along a drive and its lowest point is its last. A path with
    no arcs checks no level, so it is feasible from any start.
    """
    eps = energy_start_kwh
    for attr in path.attrs:
        eps -= attr.energy_kwh
    return not eps < -_EPS_TOL or not path.attrs


# -- requests and realized routes --------------------------------------------


@dataclass(frozen=True)
class EvRequest:
    ev: str
    source: int
    dest: int
    capacity_kwh: float
    energy_kwh: float

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError("source and destination must differ")
        if not 0.0 <= self.energy_kwh <= self.capacity_kwh:
            raise ValueError("initial energy must lie in [0, capacity]")


@dataclass
class ScsVisit:
    node: int
    leg_index: int
    wait_s: float
    charge_s: float
    arrive_kwh: float


@dataclass
class MedAttach:
    meet_node: int
    detach_node: int
    leg_index: int
    wait_s: float
    attach_s: float
    segments: tuple
    induced_per_segment: tuple
    booking_keys: tuple
    gain_kwh: float
    dispensed_kwh: float


@dataclass
class RouteAssignment:
    """One EV's realized plan: walk, charging stops, and energy profile.

    ``energy_trace`` holds the battery level at every node of ``legs`` right
    after whatever happens there (charging to full at a station visit,
    capped inductive gain along attached arcs).
    """

    ev: str
    source: int
    dest: int
    capacity_kwh: float
    energy_start_kwh: float
    legs: list
    x_arcs: list
    y_arcs: list
    z_visits: list
    q_points: list
    energy_trace: list
    total_time_s: float
    depart_s: float = 0.0

    @property
    def wait_total_s(self) -> float:
        return sum(v.wait_s for v in self.z_visits) + sum(a.wait_s for a in self.q_points)


def _plus_stops(drive_s: float, a: RouteAssignment) -> float:
    """``drive_s`` plus the station and attach stops, each kind summed left to right.

    Plain loops, so the sums are the same left fold on every Python version
    (``sum`` of floats compensates its rounding from Python 3.12 on).
    """
    stations = 0
    for v in a.z_visits:
        stations += v.wait_s + v.charge_s
    attaches = 0
    for p in a.q_points:
        attaches += p.wait_s
    return drive_s + stations + attaches


def _plan_findings(g: RoadGraph, a: RouteAssignment, tol: float):
    """The plan checks that need only the graph: the one walk and energy replay.

    Returns ``(findings, levels)``. ``findings`` lists ``(constraint id,
    message)`` pairs in check order: (2) the walk, (3) the attach spans and
    (10) the station visits, each with a negative wait there as (4), then
    the trace length (4), the energy replay (4)-(7) and the stored total
    time (4). ``levels`` holds the replayed battery level at each node of
    the walk, after any station charge there. Every arc is read from the
    graph itself, never from a path cache, so the router is checked
    independently; one lookup per arc serves the walk, the replay and the
    drive-time fold, the same left fold the router makes while it composes
    the walk. A recorded level that disagrees with the replay reads (7) at
    a station visit, where the battery must be full, and (4) elsewhere.
    """
    found = []
    Q = a.capacity_kwh
    legs = a.legs
    if not legs or legs[0] != a.source:
        found.append((2, "walk does not start at the source"))
    if legs and legs[-1] != a.dest:
        found.append((2, "walk does not end at the destination"))
    walk = list(zip(legs, legs[1:]))
    if a.x_arcs != walk:
        found.append((2, "x arcs do not match the walk"))
    attrs = []
    for i, j in walk:
        attr = g.arc(i, j)
        if attr is None:
            found.append((2, f"walk uses missing arc ({i},{j})"))
            return found, []
        attrs.append(attr)

    if [arc for att in a.q_points for arc in att.segments] != list(a.y_arcs):
        found.append((3, "y arcs do not equal the concatenated attach spans"))
    cycle = set(g.med_cycle_segments()) if a.q_points else ()
    gain_at = {}
    for att in a.q_points:
        k, n = att.leg_index, len(att.segments)
        if not 0 <= k < len(legs) - n or list(att.segments) != walk[k:k + n]:
            found.append((3, "attach span does not match the walk slice"))
        else:
            if att.meet_node != legs[k]:
                found.append((3, "attach start node mismatch"))
            if att.detach_node != legs[k + n]:
                found.append((3, "detach node mismatch"))
        if any(arc not in cycle for arc in att.segments):
            found.append((3, "attach segment is not a cycle arc"))
        if att.wait_s < 0:
            found.append((4, "negative attach wait"))
        for off, induced in enumerate(att.induced_per_segment):
            gain_at[k + off] = induced

    charge_at = {}
    for v in a.z_visits:
        if not (0 <= v.leg_index < len(legs)) or legs[v.leg_index] != v.node:
            found.append((10, "station visit index does not match the walk"))
            continue
        if v.node not in g.scs_nodes:
            found.append((10, f"station visit at non-station node {v.node}"))
        if v.wait_s < 0 or v.charge_s < 0:
            found.append((4, "negative wait or charge time at a station"))
        charge_at.setdefault(v.leg_index, []).append(v)

    trace = a.energy_trace
    if len(trace) != len(legs):
        found.append((4, "energy trace length does not match the walk"))
        return found, []
    eps = a.energy_start_kwh
    drive_s = 0.0
    levels = []
    for k, recorded in enumerate(trace):
        if k:
            attr = attrs[k - 1]
            drive_s += attr.drive_time_s
            level = eps - attr.energy_kwh + (gain_at.get(k - 1, 0.0) if gain_at else 0.0)
            eps = level if level < Q else Q
        if eps < -_EPS_TOL:
            found.append((5, f"battery below zero arriving at walk index {k}"))
        if charge_at:
            for v in charge_at.get(k, ()):
                if abs(v.arrive_kwh - eps) > tol:
                    found.append((4, "recorded arrival energy at station disagrees "
                                     "with the trace"))
                eps = Q
        if eps > Q + _EPS_TOL:
            found.append((6, f"battery above capacity at walk index {k}"))
        if abs(recorded - eps) > tol:
            found.append((7, "battery not full right after a station visit") if k in charge_at
                         else (4, f"energy trace diverges at walk index {k}"))
        levels.append(eps)

    if abs(a.total_time_s - _plus_stops(drive_s, a)) > tol:
        found.append((4, "stored total time disagrees with the recomputed objective"))
    return found, levels


def check_assignment(g: RoadGraph, a: RouteAssignment, tol: float = 1e-6):
    """All invariant violations of a realized route (empty list means clean)."""
    return [message for _, message in _plan_findings(g, a, tol)[0]]


# -- best-energy-point selection ----------------------------------------------


@dataclass
class _Candidate:
    """A scored energy point: the path there and the stop's plan.

    A station stop charges for ``charge_s``; a mobile-charger stop rides
    ``segments`` from cycle index ``start_idx`` on cycle pass ``pass_no``,
    leaving the battery at ``eps_after``. What else the route needs (booking
    keys, arcs, induced energy, detach node) is derived from those when the
    candidate is chosen.
    """

    kind: str
    unit: object
    point: int
    path: CachedPath
    score: float
    wait_s: float
    charge_s: float = 0.0
    segments: tuple = ()
    start_idx: int = 0
    pass_no: int = 0
    attach_s: float = 0.0
    eps_after: float = 0.0


def _plan_med_span(unit, start_idx, eps_at_meet, capacity, need_to_finish):
    """Shortest attach run after which the EV can also finish the trip.

    Walks cycle segments forward from the meeting point, tracking the capped
    battery level and the gross energy the charger dispenses; stops at the
    first detach point (the head of the last segment ridden) whose remaining
    trip the battery now covers (``need_to_finish`` maps a node to that
    requirement). Returns ``(segments, eps_after, attach_s)``: the ridden
    ``CycleSegment``s, the battery level after them and the attached drive
    time; None when no run within the pass budget or battery works.
    """
    segs = unit.segments
    u = len(segs)
    eps = eps_at_meet
    dispensed = 0.0
    attach_s = 0.0
    ridden = []
    for n in range(unit.max_passes * u):
        seg = segs[(start_idx + n) % u]
        dispensed += seg.induced_kwh
        if dispensed > unit.battery_kwh + _EPS_TOL:
            return None
        level = eps - seg.energy_kwh + seg.induced_kwh
        eps = level if level < capacity else capacity
        if eps < -_EPS_TOL:
            return None
        attach_s += seg.drive_s
        ridden.append(seg)
        if eps >= need_to_finish(seg.j) - _EPS_TOL:
            return tuple(ridden), eps, attach_s
    return None


def find_best_energy_point(g: RoadGraph, caches: PathCache, request: EvRequest,
                           at, energy_kwh: float, now: float, infra,
                           gate=None) -> _Candidate:
    """Pick the reachable energy point minimizing the EV's time outlay.

    Every station and cycle point the comms gate lets through is scored:
    drive there (on the time-shortest path, which must be energy-feasible),
    plus queue wait and charge time for stations, plus meeting wait and
    attached drive for mobile chargers, plus the drive-time estimate from
    the exit point to the destination.

    The winner has the smallest ``(score, kind != "scs", point)``: ties
    prefer stations, then smaller node ids, and of points equal in all three
    the first scored wins. Each point is compared as soon as it is scored,
    with a strict ``<`` as ``min`` compares, and only the winner is built
    into a :class:`_Candidate`.
    """
    Q = request.capacity_kwh
    rev_time = caches.rev(request.dest, "time")
    index = g.index
    best_key = best = None

    need_memo = {}

    def need_to_finish(node):
        # energy along the time-shortest tail the EV would actually drive
        if node not in need_memo:
            try:
                need_memo[node] = caches.path(node, request.dest, "time").energy_kwh
            except NoPath:
                need_memo[node] = INFINITE
        return need_memo[node]

    # stations first, then each charger's cycle points; a station has no
    # cycle index
    points = [("scs", unit, None, unit.node) for unit in getattr(infra, "scs_units", ())]
    points += [("med", unit, idx, point) for unit in getattr(infra, "med_units", ())
               for idx, point in enumerate(unit.points)]
    for kind, unit, idx, node in points:
        # the reach step both kinds share: gate, path, feasibility, arrival level
        if gate is not None and not gate(kind, node):
            continue
        try:
            path = caches.path(at, node, "time")
        except NoPath:
            continue
        if not _path_feasible(path, energy_kwh):
            continue
        drive = path.drive_s
        arrive = max(0.0, energy_kwh - path.energy_kwh)
        if kind == "scs":
            if arrive >= Q - 1e-12:
                continue  # nothing to gain here
            finish = rev_time[index[node]]
            if finish == INFINITE:
                continue
            wait = unit.wait_s(now, drive)
            charge = unit.charge_s(arrive, Q)
            key = (drive + wait + charge + finish, False, node)
            if best_key is None or key < best_key:
                best_key, best = key, (unit, path, wait, charge)
            continue
        if arrive >= need_to_finish(node) - _EPS_TOL:
            continue  # no deficit at this point, it is not an energy stop
        span = _plan_med_span(unit, idx, arrive, Q, need_to_finish)
        if span is None:
            continue
        segments, eps_after, attach_s = span
        finish = rev_time[index[segments[-1].j]]
        if finish == INFINITE:
            continue
        wait, pass_no = unit.waiting(idx, now + drive, len(segments))
        key = (drive + wait + attach_s + finish, True, node)
        if best_key is None or key < best_key:
            best_key, best = key, (unit, path, wait, (segments, idx, pass_no, attach_s,
                                                      eps_after))

    if best_key is None:
        raise Stranded(f"EV {request.ev}: no feasible energy point from node {at}")
    score, is_med, point = best_key
    unit, path, wait, plan = best
    if not is_med:
        return _Candidate("scs", unit, point, path, score, wait, charge_s=plan)
    segments, idx, pass_no, attach_s, eps_after = plan
    return _Candidate("med", unit, point, path, score, wait, segments=segments,
                      start_idx=idx, pass_no=pass_no, attach_s=attach_s, eps_after=eps_after)


def _drive(legs, trace, path, eps, drive_s, capacity):
    """Append a path's nodes past its start, with the battery level at each.

    Returns the level at the path's end and ``drive_s`` plus the path's arc
    drive times, added one arc at a time in walk order.
    """
    for node, attr in zip(path[1:], path.attrs):
        level = eps - attr.energy_kwh
        eps = capacity if capacity < level else level
        drive_s += attr.drive_time_s
        legs.append(node)
        trace.append(eps)
    return eps, drive_s


def _ride(legs, trace, segments, eps, drive_s, capacity):
    """:func:`_drive` along an attach run, crediting each segment's induced energy."""
    for seg in segments:
        level = eps - seg.energy_kwh + seg.induced_kwh
        eps = capacity if capacity < level else level
        drive_s += seg.drive_s
        legs.append(seg.j)
        trace.append(eps)
    return eps, drive_s


def find_shortest_path(g: RoadGraph, request: EvRequest, infra, now: float = 0.0,
                       gate=None, caches: PathCache | None = None) -> RouteAssignment:
    """Feasible route for one EV, charging along the way only when needed.

    A feasible direct path is returned untouched. Otherwise charging stops
    are inserted one at a time via :func:`find_best_energy_point`, each
    booked against the live ledgers, until the path on from the last stop is
    feasible. Raises :class:`Stranded` when
    no plan exists within :data:`LEG_LIMIT` stops. A ledger that rejects the
    slot the router priced raises ``RuntimeError``: in a sequential run
    nothing changes between pricing and booking, so a rejection means the
    scorer and the ledger disagree.

    The walk is composed in one pass: each node is appended with the
    battery level there, and the drive time is folded arc by arc in walk
    order, the left fold a per-arc walk of the finished route makes.
    """
    caches = caches or PathCache(g)
    Q = request.capacity_kwh
    try:
        tail = caches.path(request.source, request.dest, "time")
    except NoPath:
        raise Stranded(f"EV {request.ev}: destination not reachable in the graph")

    legs = [request.source]
    trace = [request.energy_kwh]
    z_visits, q_points = [], []
    eps = request.energy_kwh
    drive_s = 0.0
    elapsed = 0.0
    stops = 0
    # tail: the time-shortest path on to the destination, None if there is none
    while tail is None or not _path_feasible(tail, eps):
        if stops == LEG_LIMIT:
            raise Stranded(f"EV {request.ev}: still infeasible after "
                           f"{LEG_LIMIT} charging stops")
        stops += 1
        plan = find_best_energy_point(g, caches, request, legs[-1], eps, now + elapsed,
                                      infra, gate)
        arrival = now + elapsed + plan.path.drive_s
        eps, drive_s = _drive(legs, trace, plan.path, eps, drive_s, Q)
        elapsed += plan.path.drive_s
        if plan.kind == "scs":
            booked = plan.unit.book(request.ev, arrival, plan.charge_s)
            z_visits.append(ScsVisit(plan.point, len(legs) - 1, plan.wait_s,
                                     plan.charge_s, eps))
            eps = Q
            trace[-1] = Q
            elapsed += plan.wait_s + plan.charge_s
        else:
            segments = plan.segments
            keys = plan.unit.segment_keys(plan.start_idx, plan.pass_no, len(segments))
            induced = tuple(seg.induced_kwh for seg in segments)
            dispensed = sum(induced)
            start = arrival + plan.wait_s
            booked = plan.unit.book_attach(request.ev, keys, dispensed,
                                           start, start + plan.attach_s)
            q_points.append(MedAttach(plan.point, segments[-1].j, len(legs) - 1, plan.wait_s,
                                      plan.attach_s, tuple((seg.i, seg.j) for seg in segments),
                                      induced, keys, plan.eps_after - eps, dispensed))
            eps, drive_s = _ride(legs, trace, segments, eps, drive_s, Q)
            elapsed += plan.wait_s + plan.attach_s
        if not booked.accepted:
            raise RuntimeError(f"EV {request.ev}: the {plan.kind} ledger at node "
                               f"{plan.point} rejected the slot the router priced")
        try:
            tail = caches.path(legs[-1], request.dest, "time")
        except NoPath:
            tail = None

    _, drive_s = _drive(legs, trace, tail, eps, drive_s, Q)
    a = RouteAssignment(
        ev=request.ev, source=request.source, dest=request.dest,
        capacity_kwh=Q, energy_start_kwh=request.energy_kwh,
        legs=legs, x_arcs=list(zip(legs, legs[1:])),
        y_arcs=[arc for att in q_points for arc in att.segments], z_visits=z_visits,
        q_points=q_points, energy_trace=trace, total_time_s=0.0, depart_s=now)
    a.total_time_s = _plus_stops(drive_s, a)
    return a
