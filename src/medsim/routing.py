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
from itertools import repeat

from .road_graph import RoadGraph

INFINITE = math.inf
_EPS_TOL = 1e-9
LEG_LIMIT = 4  # charging stops one route may insert


class NoPath(Exception):
    """Target not reachable in the graph."""


class Stranded(Exception):
    """The EV cannot complete its trip with any reachable energy point."""


def _dijkstra_dist(g: RoadGraph, source, weight: str, reverse: bool, parents=None):
    """Distances under ``weight`` from position ``source``, over ``g``'s arcs reversed when
    ``reverse`` (so distances to ``source``).

    An ``array('d')`` (8 bytes per node) indexed by position, :data:`INFINITE`
    where a node is unreachable; the search itself runs on a list.

    Where the arcs all carry one ``ArcAttr`` (``g.shared_attr``), each costs
    ``g.uniform_cost(weight)``, and the search runs breadth first over
    ``g.head_table(reverse)``: each level of nodes one arc further out gets
    the running sum plus the cost once more, which is the heap search's
    distance bit for bit (see ``RoadGraph.uniform_cost``). It stops at the
    level whose sum reaches :data:`INFINITE`, where the heap search's
    ``nd < dist[nbr]`` leaves nodes at :data:`INFINITE` too; so every
    distance it assigns is finite, and :data:`INFINITE` marks a node not yet
    reached. Given ``parents``, a list as long as ``g.order``, it sets
    ``parents[k]`` for each node ``k`` it reaches to the position of the
    node that reached it first. On any other graph, one of equal but
    distinct ``ArcAttr`` objects included, a heap search runs over
    ``g.cost_table(weight, reverse)`` and sets no parent.
    """
    dist = [INFINITE] * len(g.order)
    dist[source] = 0.0
    cost = g.uniform_cost(weight)
    if cost is not None:
        heads = g.head_table(reverse)
        if parents is None:
            parents = [None] * len(dist)
        d = 0.0
        level = [source]
        while level:
            d += cost
            if d == INFINITE:
                break
            reached = []
            for node in level:
                for nbr in heads[node]:
                    if dist[nbr] == INFINITE:
                        dist[nbr] = d
                        parents[nbr] = node
                        reached.append(nbr)
            level = reached
        return array("d", dist)
    adj = g.cost_table(weight, reverse)
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
    ``drive_s`` and ``energy_kwh``, left folds over them bit-identical to a per-arc walk.

    A leg (:meth:`PathCache.leg`) is one too, with its nodes left out where
    they are not built."""


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
    """Memoized single-source distance maps, path reconstructions and legs.

    One per network, shared by every run on it (see ``sim.network_for``):
    routing asks again and again for distances from EV positions and
    charger exits to chargers and destinations. It holds only graph-derived
    data. Queries take node ids; a distance map is an ``array('d')`` indexed
    by node position (``g.index``), :data:`INFINITE` where no path exists.

    A path (:meth:`path`) is the nodes a route drives, walked node by node;
    a leg (:meth:`leg`) is only what the time-shortest path costs. Routing
    prices with legs and builds the paths it drives. Where the graph's arcs
    all carry one ``ArcAttr`` (``g.shared_attr``), every time query is
    answered from its source's map (:meth:`fwd`), elsewhere from its
    target's (:meth:`rev`).
    """

    def __init__(self, g: RoadGraph):
        self.g = g
        self._fwd = {}
        self._rev = {}
        # on a graph whose arcs share one ArcAttr: a source -> the first discoverer of each
        # node, by position, in the breadth-first search of its time map
        self._parents = {}
        self._paths = {}
        self._legs = {}
        # on a graph whose arcs share one ArcAttr: a level's distance S(h) -> the h-arc leg,
        # for each level a leg has needed
        self._level_legs = {}

    def fwd(self, source, weight: str = "time"):
        """Distances from ``source`` to every node, by position; on a graph whose arcs share
        one ``ArcAttr``, a time map keeps its search's parents for :meth:`path`."""
        key = (source, weight)
        if key not in self._fwd:
            g = self.g
            if weight == "time" and g.shared_attr is not None:
                parents = self._parents[source] = [None] * len(g.order)
                self._fwd[key] = _dijkstra_dist(g, g.index[source], weight, False, parents)
            else:
                self._fwd[key] = _dijkstra_dist(g, g.index[source], weight, False)
        return self._fwd[key]

    def rev(self, target, weight: str = "time"):
        """Distances from every node to ``target`` by position (Dijkstra on reversed arcs)."""
        key = (target, weight)
        if key not in self._rev:
            self._rev[key] = _dijkstra_dist(self.g, self.g.index[target], weight, True)
        return self._rev[key]

    def distance(self, source, target) -> float:
        """The time-shortest distance from ``source`` to ``target``, :data:`INFINITE` without a
        path: read from the source's map where the graph's arcs share one ``ArcAttr``, and
        from the target's elsewhere.

        On such a graph both maps hold ``S(h)`` for a target ``h`` arcs away
        (``RoadGraph.uniform_cost``), so the two reads agree bit for bit.
        Elsewhere the target's map is the one :meth:`path` walks.
        """
        index = self.g.index
        if self.g.shared_attr is not None:
            return self.fwd(source)[index[target]]
        return self.rev(target)[index[source]]

    def path(self, source, target, weight: str = "time") -> CachedPath:
        """Minimum-cost path with its arc costs, ties broken lexicographically.

        From a node to itself it is the one-node path with no arcs. Where
        the graph's arcs share one ``ArcAttr``, a time path is the parent
        chain of the source's breadth-first search (:meth:`fwd`), walked back
        from ``target``; elsewhere, and for energy, :func:`_lex_path` walks
        the target's map. The two agree node for node: a search that takes
        each level in discovery order and each head row in position order
        first reaches a node from the predecessor whose smallest fewest-arc
        path is smallest, so by induction the parent chain is the
        lexicographically smallest fewest-arc path, and as every arc costs
        one positive drive time that is the smallest time-shortest one.
        """
        key = (source, target, weight)
        found = self._paths.get(key)
        if found is None:
            g = self.g
            if source == target:
                found = _cached_path((source,), ())
            elif weight == "time" and g.shared_attr is not None:
                s, t = g.index[source], g.index[target]
                if self.fwd(source)[t] == INFINITE:
                    raise NoPath(f"no path from {source} to {target}")
                parents, back = self._parents[source], [t]
                while back[-1] != s:
                    back.append(parents[back[-1]])
                found = _cached_path([g.order[k] for k in reversed(back)],
                                     (g.shared_attr,) * (len(back) - 1))
            else:
                found = _lex_path(g.cost_table(weight), g.order, g.index[source],
                                  g.index[target], self.rev(target, weight))
            self._paths[key] = found
        return found

    def leg(self, source, target) -> CachedPath:
        """What the time-shortest path from ``source`` to ``target`` costs: its ``drive_s``,
        ``energy_kwh`` and ``attrs``, bit for bit :meth:`path`'s; :class:`NoPath` without one.

        Where the graph's arcs all carry one ``ArcAttr`` (``g.shared_attr``),
        every time-shortest path has ``h`` arcs carrying it, where ``h`` is
        the target's level in the source's breadth-first map, whose
        distance there is ``S(h)`` (``RoadGraph.uniform_cost``). The leg is
        the ``h``-arc one with no nodes, built once per distance: its sums
        are :func:`_cached_path`'s left folds over the same arcs as the
        path's. ``h`` is counted by the search's own fold, adding the drive
        time to ``0.0`` while the sum is below ``S(h)``, never by a division;
        it is positive, so each sum exceeds the last until some 2**52 levels,
        far more than a graph has nodes. On any other graph, and from a node
        to itself, the leg is the path.
        """
        key = (source, target)
        found = self._legs.get(key)
        if found is None:
            attr = self.g.shared_attr
            if attr is None or source == target:
                found = self.path(source, target)
            else:
                d = self.distance(source, target)
                if d == INFINITE:
                    raise NoPath(f"no path from {source} to {target}")
                found = self._level_legs.get(d)
                if found is None:
                    h, s = 0, 0.0
                    while s < d:
                        s += attr.drive_time_s
                        h += 1
                    found = self._level_legs[d] = _cached_path((), (attr,) * h)
            self._legs[key] = found
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


def _arrival_level(leg: CachedPath, eps: float):
    """The battery level at the end of a leg or path, folded arc by arc; None if it runs
    below zero.

    The fold is :func:`_drive`'s over the path's arcs, so the level is the
    walk's, bit for bit, for the path and its leg alike. One comparison at
    the end is exact: arc energies are finite and nonnegative (``ArcAttr``),
    so the lowest level is the last. A leg with no arcs checks no level: it
    is feasible from any start.
    """
    for attr in leg.attrs:
        eps -= attr.energy_kwh
    return eps if not eps < -_EPS_TOL or not leg.attrs else None


def trip_energy(caches: PathCache, source, target) -> float:
    """What a trip needs: the energy of its time-shortest path, infinite without one.

    Read from the trip's leg (:meth:`PathCache.leg`), bit for bit the
    path's, so no path is walked. An anxious EV holds less
    (``sim.sample_trips``); a charger's detach point must cover it for the
    rest of the trip (:func:`find_best_energy_point`).
    """
    try:
        return caches.leg(source, target).energy_kwh
    except NoPath:
        return INFINITE


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
        if not 0.0 < self.capacity_kwh < INFINITE:  # the vehicle's rule; NaN fails too
            raise ValueError(f"capacity must be positive and finite, got {self.capacity_kwh}")
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
    (4), the energy replay (4)-(7) node by node and the stored total time
    (4); and the replayed level at each node of the walk, after any station
    charge. The walk's arcs are read from the graph's arc table in one pass,
    never from a path cache, so the router is checked independently; the
    drive time is the router's left fold. A recorded level that disagrees
    with the replay reads (7) at a station visit and (4) elsewhere.

    The replay folds every level first. Its node by node findings are
    looked for only when a test on the whole plan leaves room for one: a
    lowest level below ``-_EPS_TOL`` or a start level that is NaN, a start
    above ``Q + _EPS_TOL`` (the clamp keeps every later level at or below
    ``Q``), a recorded level or station arrival unequal to the replay's, or
    a ``tol`` that is not a nonnegative number.
    """
    found = []
    Q = a.capacity_kwh
    legs = a.legs
    if not legs or legs[0] != a.source:
        found.append((2, "walk does not start at the source"))
    if legs and legs[-1] != a.dest:
        found.append((2, "walk does not end at the destination"))
    arcs = g.arcs
    try:
        attrs = list(map(arcs.__getitem__, zip(legs, legs[1:])))
    except KeyError:
        i, j = next(arc for arc in zip(legs, legs[1:]) if arc not in arcs)
        found.append((2, f"walk uses missing arc ({i},{j})"))
        return found, []

    gain_at = {}
    if a.q_points:
        cycle = set(g.med_cycle_segments())
        for att in a.q_points:
            k, n = att.leg_index, len(att.segments)
            if not n or not 0 <= k < len(legs) - n or \
                    list(att.segments) != list(zip(legs[k:k + n], legs[k + 1:k + n + 1])):
                found.append((3, "attach span does not match the walk slice"))
            if not cycle.issuperset(att.segments):
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
    # each arc with its attach gain; a step (None, k) at a station's node k
    # fills the battery there
    steps = zip(attrs, map(gain_at.get, range(len(attrs)), repeat(0.0)) if gain_at
                else repeat(0.0))
    if charge_at:
        steps = list(steps)
        for k in sorted(charge_at, reverse=True):
            steps.insert(k, (None, k))
    eps = a.energy_start_kwh
    levels = [eps] if legs else []
    low = eps  # the lowest level before any station charge, NaN if the start is
    arrive = {}  # the level reaching each station node, before its charges
    drive_s = 0.0
    for attr, gain in steps:
        if attr is None:
            arrive[gain], eps = eps, Q
            levels[gain] = Q
            continue
        drive_s += attr.drive_time_s
        level = eps - attr.energy_kwh + gain
        eps = level if level < Q else Q
        if eps < low:
            low = eps
        levels.append(eps)

    # after the clamp no level exceeds Q, so only the start can break (6)
    clean = (tol >= 0 and levels == trace and low >= -_EPS_TOL
             and a.energy_start_kwh <= Q + _EPS_TOL and Q <= Q + _EPS_TOL)
    for k, visits in charge_at.items() if clean else ():
        eps = arrive[k]
        for v in visits:
            clean = clean and v.arrive_kwh == eps
            eps = Q
    if not clean:
        found += _node_findings(levels, arrive, charge_at, trace, Q, tol)
    if abs(a.total_time_s - _plus_stops(drive_s, a)) > tol:
        found.append((4, "stored total time disagrees with the recomputed objective"))
    return found, levels


def _node_findings(levels, arrive, charge_at, trace, Q, tol):
    """The replay's findings (4)-(7), node by node along the walk."""
    found = []
    for k, (eps, recorded) in enumerate(zip(levels, trace)):
        visits = charge_at.get(k, ())
        if visits:
            eps = arrive[k]
        if eps < -_EPS_TOL:
            found.append((5, f"battery below zero arriving at walk index {k}"))
        for v in visits:
            if abs(v.arrive_kwh - eps) > tol:
                found.append((4, "recorded arrival energy at station disagrees "
                                 "with the trace"))
            eps = Q
        if eps > Q + _EPS_TOL:
            found.append((6, f"battery above capacity at walk index {k}"))
        if abs(recorded - eps) > tol:
            found.append((7, "battery not full right after a station visit") if visits
                         else (4, f"energy trace diverges at walk index {k}"))
    return found


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
                           at, energy_kwh: float, now: float, infra) -> _Candidate:
    """Pick the reachable energy point minimizing the EV's time outlay.

    Every station and cycle point of ``infra``, the chargers the EV may
    book, is scored: drive there on the time-shortest path, which must be
    energy-feasible, plus queue wait and charge time at a station, or
    meeting wait and attached drive at a mobile charger, plus the drive time
    on from the exit point. Each point is priced from its reach leg
    (:meth:`PathCache.leg`), whose drive time and arrival level are the
    path's bit for bit: the stop from the level :func:`_arrival_level`
    folds, the one the walk records there, and a charger's stop from the
    ride :func:`_plan_med_span` plans and the wait and pass its ``waiting``
    finds; the drive time on is :meth:`PathCache.distance` from the exit
    point. The winner has the smallest ``(score, kind != "scs", point)``:
    ties prefer stations, then smaller ids, then the first scored, as each
    point is compared with a strict ``<`` as soon as it is scored. Only the
    winner becomes a :class:`_Candidate`, and only its reach path is built.
    The winner's exit point, a station or a ride's last detach point, has a
    path on to the destination: a station is scored only where that
    distance is finite, and no level covers ``need_to_finish`` where it is
    infinite.
    """
    Q = request.capacity_kwh
    best_key = best = None

    def need_to_finish(node):
        return trip_energy(caches, node, request.dest)

    # stations first, then each charger's cycle points; a station has no
    # cycle index
    points = [("scs", unit, None, unit.node) for unit in infra.scs_units]
    points += [("med", unit, idx, point) for unit in infra.med_units
               for idx, point in enumerate(unit.points)]
    for kind, unit, idx, node in points:
        # the reach step both kinds share: leg, feasibility, arrival level
        try:
            leg = caches.leg(at, node)
        except NoPath:
            continue
        arrive = _arrival_level(leg, energy_kwh)
        if arrive is None:
            continue
        drive = leg.drive_s
        if kind == "scs":
            if arrive >= Q - 1e-12:
                continue  # nothing to gain here
            finish = caches.distance(node, request.dest)
            if finish == INFINITE:
                continue
            wait = unit.wait_s(now, drive)
            charge = unit.charge_s(arrive, Q)
            key = (drive + wait + charge + finish, False, node)
            if best_key is None or key < best_key:
                best_key, best = key, ("scs", unit, node, wait, charge)
            continue
        if arrive >= need_to_finish(node) - _EPS_TOL:
            continue  # no deficit at this point, it is not an energy stop
        ride = _plan_med_span(unit, idx, arrive, Q, need_to_finish)
        if ride is None:
            continue
        last, _, attach_s = ride[-1]
        finish = caches.distance(last.j, request.dest)
        wait, pass_no = unit.waiting(idx, now + drive, len(ride))
        key = (drive + wait + attach_s + finish, True, node)
        if best_key is None or key < best_key:
            best_key, best = key, ("med", unit, node, wait, 0.0, ride, idx, pass_no)

    if best_key is None:
        raise Stranded(f"EV {request.ev}: no feasible energy point from node {at}")
    kind, unit, node, *stop = best
    return _Candidate(kind, unit, node, caches.path(at, node), *stop)


def _drive(legs, trace, path, eps, drive_s):
    """Append a path's nodes past its start, with the battery level at each.

    Returns the level at the path's end and ``drive_s`` plus the path's arc
    drive times, added one arc at a time in walk order. No level exceeds capacity: each
    start is within it (``EvRequest``, a station's fill, ``MedState.ride``'s cap), and
    arc energies are finite and nonnegative, so driving never raises the level.
    """
    for node, attr in zip(path[1:], path.attrs):
        eps -= attr.energy_kwh
        drive_s += attr.drive_time_s
        legs.append(node)
        trace.append(eps)
    return eps, drive_s


def find_shortest_path(g: RoadGraph, request: EvRequest, infra, now: float = 0.0, *,
                       caches: PathCache) -> RouteAssignment:
    """Feasible route for one EV, charging along the way only when needed.

    A feasible direct path is returned untouched. Otherwise charging stops
    are inserted one at a time via :func:`find_best_energy_point` from the
    chargers ``infra`` holds, the ones the EV may book, each booked against
    their live ledgers, until the path on from the last stop is
    feasible; :class:`Stranded` when no plan exists within :data:`LEG_LIMIT`
    stops. Each stop's exit point has a path on to the destination
    (:func:`find_best_energy_point`), and its ledger grants the slot it was
    priced on, as nothing changes between pricing and booking. The walk is
    composed in one pass, folding levels and drive time arc by arc
    in walk order, and each stop is recorded from the level chain it was
    priced on: a station's arrival level, or the ride the scorer priced.
    Paths, legs and distance maps come from ``caches``, the graph's shared
    :class:`PathCache`: the direct trip and each tail are tested on their
    legs, and only the tail the EV drives is built as a path.
    """
    Q = request.capacity_kwh
    try:
        tail = caches.leg(request.source, request.dest)
    except NoPath:
        raise Stranded(f"EV {request.ev}: destination not reachable in the graph")

    legs = [request.source]
    trace = [request.energy_kwh]
    z_visits, q_points = [], []
    eps = request.energy_kwh
    drive_s = 0.0
    elapsed = 0.0
    stops = 0
    # tail: the leg of the time-shortest path on to the destination
    while _arrival_level(tail, eps) is None:
        if stops == LEG_LIMIT:
            raise Stranded(f"EV {request.ev}: still infeasible after "
                           f"{LEG_LIMIT} charging stops")
        stops += 1
        plan = find_best_energy_point(g, caches, request, legs[-1], eps, now + elapsed, infra)
        arrival = now + elapsed + plan.path.drive_s
        eps, drive_s = _drive(legs, trace, plan.path, eps, drive_s)
        elapsed += plan.path.drive_s
        if plan.kind == "scs":
            plan.unit.book(request.ev, arrival, plan.charge_s)
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
            plan.unit.book_attach(request.ev, plan.start_idx, plan.pass_no, n,
                                  start, start + attach_s)
            q_points.append(MedAttach.build(plan.unit, plan.start_idx, plan.pass_no, n,
                                            meet_leg, plan.wait_s, attach_s))
            elapsed += plan.wait_s + attach_s
        tail = caches.leg(legs[-1], request.dest)

    _, drive_s = _drive(legs, trace, caches.path(legs[-1], request.dest), eps, drive_s)
    a = RouteAssignment(
        ev=request.ev, source=request.source, dest=request.dest,
        capacity_kwh=Q, energy_start_kwh=request.energy_kwh,
        legs=legs, z_visits=z_visits, q_points=q_points, energy_trace=trace,
        total_time_s=0.0, depart_s=now)
    a.total_time_s = _plus_stops(drive_s, a)
    return a
