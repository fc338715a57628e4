"""Exhaustive single-EV solver used as the correctness oracle for the router.

The solver enumerates source-to-destination walks of the constrained
shortest-path formulation on small instances, with charging decisions at
station visits and contiguous attach runs along the mobile-charger cycle.
Repeat visits are bounded by counting, with the caps the graph derives from
``visit_limit`` (:meth:`RoadGraph.visit_cap`): every charger node may be
charged at / attached to at most ``visit_limit`` times, and an arc (i, j)
may be traversed at most ``visit_cap(i) * visit_cap(j)`` times. These are
the bounds the paper's formulation gets by cloning each charger into
``visit_limit`` copies. Waits are frozen inputs here; the formulation treats
them as data, not as queue dynamics.

Branch and bound with an admissible drive-time bound keeps the enumeration
exact while pruning hopeless prefixes. The search is best-first at each
node: it tries the outgoing arcs in order of drive time plus the head's
shortest drive time to the destination, so a good incumbent comes early
and pruning starts soon. The order changes how many states are explored,
never the objective; explored counts from versions that tried arcs by
neighbour id are not comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .charging import BookResult, Infrastructure, MedState, scs_charge_time
from .energy import InductionParams, VehicleParams
from .road_graph import RoadGraph, load_graph, require_keys
from .routing import (EvRequest, MedAttach, PathCache, RouteAssignment, ScsVisit,
                      _plan_findings)

INFINITE = math.inf
NODE_BOUND = 14
_TOL = 1e-9


class OracleError(Exception):
    """Instance outside the oracle's bounds; it refuses rather than truncates."""


# -- frozen infrastructure (waits as data, bookings always granted) -----------


class FrozenScs:
    """Station with a fixed queue wait, for static-ledger routing."""

    def __init__(self, node: int, rate_kw: float, wait_s: float = 0.0):
        self.node = node
        self.rate_kw = rate_kw
        self.fixed_wait_s = wait_s

    def wait_s(self, now, drive_s):
        return self.fixed_wait_s

    def charge_s(self, energy_kwh, capacity_kwh):
        return scs_charge_time(energy_kwh, capacity_kwh, self.rate_kw)

    def book(self, ev, arrival_s, charge_s):
        return BookResult(True)


class FrozenMed(MedState):
    """Mobile charger with fixed per-point waits whose bookings always succeed."""

    def __init__(self, graph: RoadGraph, induction: InductionParams,
                 waits=None, battery_kwh: float = INFINITE):
        super().__init__(graph, induction, battery_kwh)
        self.waits = dict(waits or {})

    def waiting(self, start_idx, ev_arrival_s, n_segments):
        return self.waits.get(self.points[start_idx], 0.0), 0

    def book_attach(self, ev, segment_keys, energy_kwh, start_s, end_s):
        return BookResult(True)


@dataclass
class OracleInstance:
    """One EV's routing problem against frozen chargers.

    ``caches`` is the instance's one path cache: :func:`solve_exact`,
    :func:`verify` and anything else that asks about this instance share its
    distance maps instead of computing them again.
    """

    graph: RoadGraph
    request: EvRequest
    scs_waits: dict = field(default_factory=dict)
    scs_rates: dict = field(default_factory=dict)
    med_waits: dict = field(default_factory=dict)
    induction: InductionParams | None = None
    med_battery_kwh: float = INFINITE
    default_rate_kw: float = 19.2
    caches: PathCache = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for end in (self.request.source, self.request.dest):
            if end not in self.graph.nodes:
                raise OracleError(f"request endpoint {end} is not a graph node")
        if not all(w >= 0 for w in list(self.scs_waits.values()) + list(self.med_waits.values())):
            raise OracleError("waits must be nonnegative")
        for node in (*self.scs_waits, *self.scs_rates):
            if node not in self.graph.scs_nodes:
                raise OracleError(f"scs node {node} is not a station of the graph")
        for node in self.med_waits:
            if node not in self.graph.med_points:
                raise OracleError(f"med wait_s point {node} is not a cycle point of the graph")
        if not all(rate > 0 for rate in (*self.scs_rates.values(), self.default_rate_kw)):
            raise OracleError("charge rates must be positive")
        self.caches = PathCache(self.graph)

    def rate_of(self, node) -> float:
        return self.scs_rates.get(node, self.default_rate_kw)

    def frozen_infrastructure(self):
        scs = [FrozenScs(n, self.rate_of(n), self.scs_waits.get(n, 0.0))
               for n in self.graph.scs_nodes]
        meds = []
        if self.graph.med_points:
            if self.induction is None:
                raise OracleError("instance has a mobile charger but no induction parameters")
            meds.append(FrozenMed(self.graph, self.induction, self.med_waits,
                                  self.med_battery_kwh))
        return Infrastructure(scs_units=scs, med_units=meds)


@dataclass
class OracleSolution:
    best: RouteAssignment | None
    objective_s: float
    explored: int
    feasible: bool


def solve_exact(inst: OracleInstance, search_budget: int = 2_000_000) -> OracleSolution:
    """Global minimum-travel-time plan for one EV, or infeasibility.

    Depth-first enumeration over walks with per-visit charging and attach
    decisions; an admissible remaining-drive-time bound prunes branches that
    cannot beat the incumbent, so the returned objective is exact. At each
    node the search charges first, then attaches, then drives, trying the
    arcs best-first: by drive time plus the head's time to the destination,
    ties by neighbour order. Among optima of equal objective, the first one
    found in that order is returned.

    Everything a search node reads about its graph node is precomputed once
    into a row: the bound's inputs, the outgoing arcs in search order with
    their caps, and the charger there. The search records station visits and
    attach runs as plain tuples, and the returned plan's :class:`ScsVisit`
    and :class:`MedAttach` records, with their segments, induced energies
    and booking keys, are built once at the end.
    """
    g = inst.graph
    size = sum(g.visit_cap(n) for n in g.nodes)
    if size > NODE_BOUND:
        raise OracleError(
            f"{size} nodes (each charger counted visit_limit times) exceed the "
            f"oracle bound of {NODE_BOUND}; refusing rather than truncating")
    req = inst.request
    Q = req.capacity_kwh
    dest = req.dest
    caches = inst.caches
    index = g.index
    scs_set = set(g.scs_nodes)
    med_set = set(g.med_points)

    cap = {n: g.visit_cap(n) for n in g.nodes}
    # visits left per charger; a node is never both a station and a cycle point
    left = {c: cap[c] for c in scs_set | med_set}
    arc_ids = {key: k for k, key in enumerate(g.arcs)}
    used = [0] * len(arc_ids)

    def arc_row(i, j):
        return arc_ids[(i, j)], cap[i] * cap[j]

    if med_set:
        med = inst.frozen_infrastructure().med_units[0]
        u = len(med.segments)
        med_idx = {p: k for k, p in enumerate(med.points)}
        max_segs = med.max_passes * u
        # the cycle's segments laid out long enough that a run of max_segs
        # starting at any point is one slice
        run_rows = [(*arc_row(s.i, s.j), s.energy_kwh, s.induced_kwh, s.drive_s, s.j)
                    for s in med.segments] * (med.max_passes + 1)

    lb_time = caches.rev(dest, "time")
    min_e_dest = caches.rev(dest, "energy")
    charger_maps = [(c, caches.rev(c, "time"), lb_time[index[c]], caches.rev(c, "energy"))
                    for c in sorted(left)]
    rows = {}
    for n in g.nodes:
        k = index[n]
        # (time to the destination via charger c, energy to reach c, c),
        # fastest first: the first charger with visits left and within the
        # battery's reach gives the bound's minimum
        via = tuple(sorted((t_to_c[k] + t_on, e_to_c[k], c)
                           for c, t_to_c, t_on, e_to_c in charger_maps
                           if t_to_c[k] + t_on < INFINITE))
        # best-first: arcs by drive time plus the head's time to the
        # destination, so a good incumbent is found early; the sort is
        # stable, so ties keep neighbour order
        out = tuple(sorted(((nbr, *arc_row(n, nbr), attr.energy_kwh, attr.drive_time_s)
                            for nbr, attr in g.neighbors(n)),
                           key=lambda arc: arc[4] + lb_time[index[arc[0]]]))
        station = (inst.scs_waits.get(n, 0.0), inst.rate_of(n)) if n in scs_set else None
        meet = (med_idx[n], inst.med_waits.get(n, 0.0)) if n in med_set else None
        rows[n] = (min_e_dest[k], lb_time[k], via, out, station, meet)

    best_obj = INFINITE
    best_plan = None
    explored = 0
    walk = [req.source]
    trace = [req.energy_kwh]
    zs, qs = [], []

    def explore(node, eps, obj, may_charge):
        nonlocal best_obj, best_plan, explored
        explored += 1
        if explored > search_budget:
            raise OracleError("search budget exceeded; instance too loose for the oracle")
        if node == dest:
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_plan = (walk[:], trace[:], zs[:], qs[:])
            return
        e_dest, t_dest, via, out, station, meet = rows[node]
        # admissible remaining drive time: straight to the destination when
        # the battery covers it, else via the nearest charger that is both
        # energy-reachable and still has visit budget (every completion must
        # touch one first); infinite means the branch is dead
        if eps + _TOL >= e_dest:
            bound = t_dest
        else:
            bound = INFINITE
            for t, e_to_c, c in via:
                if left[c] and eps + _TOL >= e_to_c:
                    bound = t
                    break
        if obj + bound >= best_obj - 1e-12:
            return

        if may_charge and station and left[node] and eps < Q - 1e-12:
            wait, rate = station
            ct = scs_charge_time(eps, Q, rate)
            left[node] -= 1
            zs.append((node, len(walk) - 1, wait, ct, eps))
            old = trace[-1]
            trace[-1] = Q
            explore(node, Q, obj + wait + ct, False)
            trace[-1] = old
            zs.pop()
            left[node] += 1

        if meet and left[node]:
            _explore_attach(node, eps, obj, *meet)

        for nbr, arc, cap, energy, drive in out:
            if used[arc] >= cap:
                continue
            nxt = eps - energy
            if nxt < -_TOL:
                continue
            used[arc] += 1
            walk.append(nbr)
            trace.append(nxt)
            explore(nbr, nxt, obj + drive, True)
            trace.pop()
            walk.pop()
            used[arc] -= 1

    def _explore_attach(node, eps, obj, start_idx, wait):
        left[node] -= 1
        meet_leg = len(walk) - 1
        cur, dispensed, drive = eps, 0.0, 0.0
        taken = []
        for arc, cap, energy, induced, seg_drive, detach in \
                run_rows[start_idx:start_idx + max_segs]:
            if used[arc] >= cap:
                break
            dispensed += induced
            if dispensed > inst.med_battery_kwh + _TOL:
                break
            cur = min(Q, cur - energy + induced)
            if cur < -_TOL:
                break
            drive += seg_drive
            used[arc] += 1
            taken.append(arc)
            walk.append(detach)
            trace.append(cur)
            qs.append((node, meet_leg, wait, drive, start_idx, len(taken), cur - eps,
                       dispensed))
            explore(detach, cur, obj + wait + drive, True)
            qs.pop()
        for arc in taken:
            used[arc] -= 1
            walk.pop()
            trace.pop()
        left[node] += 1

    try:
        if req.energy_kwh >= -_TOL:
            explore(req.source, req.energy_kwh, 0.0, True)
    finally:
        # the closures reach themselves and each other through their cells;
        # emptying the cells breaks that cycle, so reference counting frees
        # the rows, maps and instance as soon as the solve returns or raises
        explore = _explore_attach = None

    if best_plan is None:
        return OracleSolution(None, INFINITE, explored, False)
    legs, tr, z_list, q_list = best_plan
    q_points = []
    for node, meet_leg, wait, drive, start_idx, n_seg, gain, dispensed in q_list:
        segs = [med.segments[(start_idx + k) % u] for k in range(n_seg)]
        q_points.append(MedAttach(
            node, med.points[(start_idx + n_seg) % u], meet_leg, wait, drive,
            tuple((s.i, s.j) for s in segs), tuple(s.induced_kwh for s in segs),
            med.segment_keys(start_idx, 0, n_seg), gain, dispensed))
    assignment = RouteAssignment(
        ev=req.ev, source=req.source, dest=dest, capacity_kwh=Q,
        energy_start_kwh=req.energy_kwh, legs=legs,
        x_arcs=list(zip(legs, legs[1:])),
        y_arcs=[arc for a in q_points for arc in a.segments],
        z_visits=[ScsVisit(*v) for v in z_list], q_points=q_points, energy_trace=tr,
        total_time_s=best_obj)
    return OracleSolution(assignment, best_obj, explored, True)


# -- constraint-by-constraint verification ------------------------------------


def verify(inst: OracleInstance, a: RouteAssignment, tol: float = 1e-6,
           check_waits: bool = True) -> str:
    """Check a plan against every formulation constraint; name the first broken one.

    Returns "ok" or "violated(<id>)" where the id is the constraint number:
    (2) flow conservation, (3) charging only on traversed arcs, (4) energy
    bookkeeping, (5) level never negative, (6) level never above capacity,
    (7) full charge at visited stations, (8) some charger or the destination
    stays within reach at every visited node, (9)-(11) decision domains.
    The walk, the energy replay and the stored objective are the router's
    own self-check (:func:`~medsim.routing.check_assignment`); what follows
    it needs the instance: charge rates, frozen waits, reachability and caps.
    """
    g = inst.graph
    Q = a.capacity_kwh
    findings, levels = _plan_findings(g, a, tol)
    if findings:
        return f"violated({findings[0][0]})"

    # (4) charge times at the instance's rates, waits as the frozen data
    for v in a.z_visits:
        expected = scs_charge_time(v.arrive_kwh, Q, inst.rate_of(v.node))
        if abs(v.charge_s - expected) > tol:
            return "violated(4)"
        if check_waits and abs(v.wait_s - inst.scs_waits.get(v.node, 0.0)) > tol:
            return "violated(4)"
    if check_waits:
        for att in a.q_points:
            if abs(att.wait_s - inst.med_waits.get(att.meet_node, 0.0)) > tol:
                return "violated(4)"

    # (8) wherever the EV stands it can still reach the destination or a charger
    min_e_dest = inst.caches.rev(a.dest, "energy")
    chargers = sorted(set(g.scs_nodes) | set(g.med_points))
    min_e_charger = [inst.caches.rev(c, "energy") for c in chargers]
    for node, eps_here in zip(a.legs, levels):
        pos = g.index[node]
        if eps_here + _TOL >= min_e_dest[pos]:
            continue
        if any(eps_here + _TOL >= dist[pos] for dist in min_e_charger):
            continue
        return "violated(8)"

    # (9)-(11) decision domains: arc multiplicities and per-charger visit budgets
    counts = {}
    for arc in a.x_arcs:
        counts[arc] = counts.get(arc, 0) + 1
    for (i, j), n in counts.items():
        if n > g.visit_cap(i) * g.visit_cap(j):
            return "violated(9)"
    z_counts = {}
    for v in a.z_visits:
        z_counts[v.node] = z_counts.get(v.node, 0) + 1
        if z_counts[v.node] > g.visit_cap(v.node):
            return "violated(10)"
    med_set = set(g.med_points)
    q_counts = {}
    for att in a.q_points:
        if att.meet_node not in med_set:
            return "violated(11)"
        q_counts[att.meet_node] = q_counts.get(att.meet_node, 0) + 1
        if q_counts[att.meet_node] > g.visit_cap(att.meet_node):
            return "violated(11)"
    return "ok"


# -- instance (de)serialization ------------------------------------------------


def instance_from_json(doc) -> OracleInstance:
    """Build an instance from the CLI's JSON schema."""
    require_keys(doc, ("graph", "request"), "instance", OracleError)
    r, scs, med = doc["request"], doc.get("scs", []), doc.get("med", {})
    if not (isinstance(r, dict) and isinstance(med, dict) and isinstance(scs, list)
            and all(isinstance(s, dict) for s in scs)):
        raise OracleError("request and med must be objects, scs a list of objects")
    require_keys(r, ("source", "dest", "capacity_kwh", "energy_kwh"), "request", OracleError)
    for k, s in enumerate(scs):
        require_keys(s, ("node",), f"scs entry #{k}", OracleError)
        if isinstance(s["node"], (list, dict)):
            raise OracleError(f"scs entry #{k} has a node that is not a node id")
    try:
        vehicle = VehicleParams(**doc["vehicle"]) if "vehicle" in doc else None
    except (TypeError, ValueError) as exc:
        raise OracleError(f"vehicle: {exc}") from None
    g = load_graph(doc["graph"], vehicle=vehicle, visit_limit=doc.get("visit_limit", 2))
    try:
        request = EvRequest(str(r.get("ev", "ev0")), r["source"], r["dest"],
                            float(r["capacity_kwh"]), float(r["energy_kwh"]))
    except (TypeError, ValueError) as exc:
        raise OracleError(f"request: {exc}") from None
    scs_waits, scs_rates = {}, {}
    for k, s in enumerate(scs):
        try:
            wait, rate = float(s.get("wait_s", 0.0)), float(s.get("rate_kw", 19.2))
        except (TypeError, ValueError):
            raise OracleError(f"scs entry #{k} has a non-numeric wait_s or rate_kw") from None
        scs_waits[s["node"]], scs_rates[s["node"]] = wait, rate
    try:
        med_waits = {int(k): float(v) for k, v in med.get("wait_s", {}).items()}
    except (AttributeError, TypeError, ValueError):
        raise OracleError("med wait_s must map integer cycle points to numbers") from None
    if "c_ind" in med:
        require_keys(med, ("p_ind_kw",), "med", OracleError)
    try:
        induction = (InductionParams(float(med["c_ind"]), float(med["p_ind_kw"]))
                     if "c_ind" in med else None)
        battery_kwh = float(med.get("battery_kwh", INFINITE))
    except (TypeError, ValueError) as exc:
        raise OracleError(f"med: {exc}") from None
    return OracleInstance(g, request, scs_waits, scs_rates, med_waits, induction, battery_kwh)
