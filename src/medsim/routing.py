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

    An ``array('d')`` (8 bytes per node) indexed by position, :data:`INFINITE`
    where a node is unreachable; the search itself runs on a list.
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
    """A path's node tuple, carrying its arcs ``attrs`` (``ArcAttr``) in path order and
    ``drive_s`` and ``energy_kwh``, left folds over them bit-identical to a per-arc walk."""


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

    One per network, shared by every run on it (see ``sim.network_for``):
    routing asks again and again for distances from EV positions and to
    chargers and destinations. It holds only graph-derived data. Queries
    take node ids; a distance map is an ``array('d')`` indexed by node
    position (``g.index``), :data:`INFINITE` where no path exists.
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
    equals the tail's, as exact float equality, so no step adds slack) depth
    first, smallest neighbour position first: without a dead end, the greedy
    smallest-id walk. A reachable node always has a tight arc, as the search
    set its distance to ``d + cost`` over one arc. Zero-cost arcs can lead
    to a node whose tight arcs all return to visited nodes; the search then
    backs up and tries the next. The path comes back as ids, via ``order``.
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


def _arrival_level(path: CachedPath, eps: float):
    """The battery level at the path's end, folded arc by arc; None if it runs below zero.

    The fold is :func:`_drive`'s, so the level is the walk's, bit for bit.
    One comparison at the end is exact: arc energies are finite and
    nonnegative (``ArcAttr``), so the lowest level is the last. A path with
    no arcs checks no level: it is feasible from any start.
    """
    for attr in path.attrs:
        eps -= attr.energy_kwh
    return eps if not eps < -_EPS_TOL or not path.attrs else None


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
    """One attach run; ``meet_node`` and ``detach_node`` are its span's ends."""

    leg_index: int
    wait_s: float
    attach_s: float
    segments: tuple
    induced_per_segment: tuple
    booking_keys: tuple

    @property
    def meet_node(self) -> int:
        return self.segments[0][0]

    @property
    def detach_node(self) -> int:
        return self.segments[-1][1]

    @classmethod
    def build(cls, unit, start_idx, pass_no, n_segments, leg_index, wait_s, attach_s):
        """Riding ``n_segments`` of ``unit``'s cycle from ``start_idx`` on pass ``pass_no``.

        Segments, induced energies and booking keys come from the charger's
        ``span``; ``attach_s`` is what ``unit.ride`` yielded after the
        ride's last segment.
        """
        segs = [unit.segments[seg] for seg, _ in unit.span(start_idx, n_segments)[0]]
        return cls(leg_index, wait_s, attach_s, tuple((seg.i, seg.j) for seg in segs),
                   tuple(seg.induced_kwh for seg in segs),
                   unit.segment_keys(start_idx, pass_no, n_segments))


@dataclass
class RouteAssignment:
    """One EV's realized plan: walk, charging stops, and energy profile.

    ``energy_trace`` holds the battery level at every node of ``legs`` right
    after whatever happens there (charging to full at a station visit,
    capped inductive gain along attached arcs). ``x_arcs`` and ``y_arcs``
    are derived from the walk and the attach spans, never stored.
    """

    ev: str
    source: int
    dest: int
    capacity_kwh: float
    energy_start_kwh: float
    legs: list
    z_visits: list
    q_points: list
    energy_trace: list
    total_time_s: float
    depart_s: float = 0.0

    @property
    def x_arcs(self) -> list:
        """The arcs driven: consecutive pairs of the walk."""
        return list(zip(self.legs, self.legs[1:]))

    @property
    def y_arcs(self) -> list:
        """The arcs ridden behind a mobile charger: the attach spans joined."""
        return [arc for att in self.q_points for arc in att.segments]

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

    Returns ``(findings, levels)``: ``(constraint id, message)`` pairs in
    check order, (2) the walk, (3) the attach spans and (10) the station
    visits, each with a negative wait there as (4), then the trace length
    (4), the energy replay (4)-(7) and the stored total time (4); and the
    replayed level at each node of the walk, after any station charge. Each
    arc is read once from the graph, never from a path cache, so the router
    is checked independently; the drive time is the router's left fold. A
    recorded level that disagrees with the replay reads (7) at a station
    visit and (4) elsewhere.
    """
    found = []
    Q = a.capacity_kwh
    legs = a.legs
    if not legs or legs[0] != a.source:
        found.append((2, "walk does not start at the source"))
    if legs and legs[-1] != a.dest:
        found.append((2, "walk does not end at the destination"))
    walk = a.x_arcs
    attrs = []
    for i, j in walk:
        attr = g.arc(i, j)
        if attr is None:
            found.append((2, f"walk uses missing arc ({i},{j})"))
            return found, []
        attrs.append(attr)

    cycle = set(g.med_cycle_segments()) if a.q_points else ()
    gain_at = {}
    for att in a.q_points:
        k, n = att.leg_index, len(att.segments)
        if not n or not 0 <= k < len(legs) - n or list(att.segments) != walk[k:k + n]:
            found.append((3, "attach span does not match the walk slice"))
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
    """The chosen energy point: the path there and the stop's plan.

    A station stop charges for ``charge_s``; a mobile-charger stop is
    ``ride``, the prefix of the charger's ``ride`` priced from cycle index
    ``start_idx`` on pass ``pass_no``: the walk appends it as it is, the
    ledger books its ``span`` and :meth:`MedAttach.build` records it.
    """

    kind: str
    unit: object
    point: int
    path: CachedPath
    wait_s: float
    charge_s: float = 0.0
    ride: tuple = ()
    start_idx: int = 0
    pass_no: int = 0


def _plan_med_span(unit, start_idx, eps_at_meet, capacity, need_to_finish):
    """Shortest attach run after which the EV can also finish the trip.

    Rides the charger (``unit.ride``) from the meeting point and stops at
    the first detach point (the head of the last segment ridden) whose
    remaining trip the battery now covers (``need_to_finish`` maps a node
    to that requirement). Returns the run's items up to that point, each
    ``(segment, level, attach_s)`` as the ride yields it; None when the run
    ends before any detach point covers the trip.
    """
    ride = []
    for step in unit.ride(start_idx, eps_at_meet, capacity):
        ride.append(step)
        if step[1] >= need_to_finish(step[0].j) - _EPS_TOL:
            return tuple(ride)
    return None


def find_best_energy_point(g: RoadGraph, caches: PathCache, request: EvRequest,
                           at, energy_kwh: float, now: float, infra,
                           gate=None) -> _Candidate:
    """Pick the reachable energy point minimizing the EV's time outlay.

    Every station and cycle point the comms gate lets through is scored:
    drive there on the time-shortest path, which must be energy-feasible,
    plus queue wait and charge time at a station, or meeting wait and
    attached drive at a mobile charger, plus the drive time on from the exit
    point. Each stop is priced from the level :func:`_arrival_level` folds,
    the one the walk records there, and a charger's stop from the ride
    :func:`_plan_med_span` plans and the wait and pass its ``waiting``
    finds. The winner has the smallest ``(score, kind != "scs", point)``:
    ties prefer stations, then smaller ids, then the first scored, as each
    point is compared with a strict ``<`` as soon as it is scored. Only the
    winner becomes a :class:`_Candidate`.
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
    points = [("scs", unit, None, unit.node) for unit in infra.scs_units]
    points += [("med", unit, idx, point) for unit in infra.med_units
               for idx, point in enumerate(unit.points)]
    for kind, unit, idx, node in points:
        # the reach step both kinds share: gate, path, feasibility, arrival level
        if gate is not None and not gate(kind, node):
            continue
        try:
            path = caches.path(at, node, "time")
        except NoPath:
            continue
        arrive = _arrival_level(path, energy_kwh)
        if arrive is None:
            continue
        drive = path.drive_s
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
                best_key, best = key, ("scs", unit, node, path, wait, charge)
            continue
        if arrive >= need_to_finish(node) - _EPS_TOL:
            continue  # no deficit at this point, it is not an energy stop
        ride = _plan_med_span(unit, idx, arrive, Q, need_to_finish)
        if ride is None:
            continue
        last, _, attach_s = ride[-1]
        finish = rev_time[index[last.j]]
        if finish == INFINITE:
            continue
        wait, pass_no = unit.waiting(idx, now + drive, len(ride))
        key = (drive + wait + attach_s + finish, True, node)
        if best_key is None or key < best_key:
            best_key, best = key, ("med", unit, node, path, wait, 0.0, ride, idx, pass_no)

    if best_key is None:
        raise Stranded(f"EV {request.ev}: no feasible energy point from node {at}")
    return _Candidate(*best)


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


def find_shortest_path(g: RoadGraph, request: EvRequest, infra, now: float = 0.0,
                       gate=None, caches: PathCache | None = None) -> RouteAssignment:
    """Feasible route for one EV, charging along the way only when needed.

    A feasible direct path is returned untouched. Otherwise charging stops
    are inserted one at a time via :func:`find_best_energy_point`, each
    booked against the live ledgers, until the path on from the last stop is
    feasible; :class:`Stranded` when no plan exists within :data:`LEG_LIMIT`
    stops. A ledger that rejects the slot the router priced raises
    ``RuntimeError``, as nothing changes between pricing and booking. The
    walk is composed in one pass, folding levels and drive time arc by arc
    in walk order, and each stop is recorded from the level chain it was
    priced on: a station's arrival level, or the ride the scorer priced.
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
    while tail is None or _arrival_level(tail, eps) is None:
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
            meet_leg, n = len(legs) - 1, len(plan.ride)
            for seg, eps, attach_s in plan.ride:
                drive_s += seg.drive_s
                legs.append(seg.j)
                trace.append(eps)
            start = arrival + plan.wait_s
            booked = plan.unit.book_attach(request.ev, plan.start_idx, plan.pass_no, n,
                                           start, start + attach_s)
            q_points.append(MedAttach.build(plan.unit, plan.start_idx, plan.pass_no, n,
                                            meet_leg, plan.wait_s, attach_s))
            elapsed += plan.wait_s + attach_s
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
        legs=legs, z_visits=z_visits, q_points=q_points, energy_trace=trace,
        total_time_s=0.0, depart_s=now)
    a.total_time_s = _plus_stops(drive_s, a)
    return a
