"""Exhaustive single-EV solver used as the correctness oracle for the router.

The solver enumerates source-to-destination walks of the constrained
shortest-path formulation on small instances, with charging decisions at
station visits and contiguous attach runs along the mobile-charger cycle.
Repeat visits are bounded by counting (:meth:`RoadGraph.visit_cap`): a
charger may be used ``visit_limit`` times and an arc (i, j) driven
``visit_cap(i) * visit_cap(j)`` times, the bounds the paper's formulation
gets by cloning each charger into ``visit_limit`` copies. Waits are frozen
data, not queue dynamics. Branch and bound with an admissible drive-time
bound keeps the search exact; it tries each node's arcs best-first, so a
good incumbent comes early. The order changes how many states are explored,
never the objective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .charging import STATION_RATE_KW, Infrastructure, MedState, ScsState, scs_charge_time
from .energy import InductionParams, VehicleParams
from .road_graph import (AS_IS, INTEGER, NODE_ID, NUMBER, OBJECT, OBJECTS, VISIT_LIMIT_DEFAULT,
                         RoadGraph, load_graph, read_block, read_entries, read_params)
from .routing import (_EPS_TOL, INFINITE, EvRequest, MedAttach, PathCache, RouteAssignment,
                      ScsVisit, _plan_findings)

NODE_BOUND = 14


class OracleError(Exception):
    """Instance outside the oracle's bounds; it refuses rather than truncates."""


# -- frozen infrastructure (waits as data, bookings always granted) -----------


class FrozenScs(ScsState):
    """Station with a fixed queue wait, for static-ledger routing."""

    def __init__(self, node: int, rate_kw: float, wait_s: float = 0.0):
        super().__init__(node, rate_kw)
        self.fixed_wait_s = wait_s

    def wait_s(self, now, drive_s):
        return self.fixed_wait_s

    def book(self, ev, arrival_s, charge_s):
        pass


class FrozenMed(MedState):
    """Mobile charger with fixed per-point waits whose bookings always succeed."""

    def __init__(self, graph: RoadGraph, induction: InductionParams,
                 waits=None, battery_kwh: float = INFINITE):
        super().__init__(graph, induction, battery_kwh)
        self.waits = dict(waits or {})

    def waiting(self, start_idx, ev_arrival_s, n_segments):
        return self.waits.get(self.points[start_idx], 0.0), 0

    def book_attach(self, ev, start_idx, pass_no, n_segments, start_s, end_s):
        pass


@dataclass
class OracleInstance:
    """One EV's routing problem against frozen chargers.

    A station missing from ``scs_rates`` charges at ``STATION_RATE_KW``.
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
        if not all(rate > 0 for rate in self.scs_rates.values()):
            raise OracleError("charge rates must be positive")
        if not self.med_battery_kwh >= 0.0:
            raise OracleError(f"med battery_kwh must be nonnegative, got {self.med_battery_kwh}")
        if self.graph.med_points and self.induction is None:
            raise OracleError("instance has a mobile charger but no induction parameters")
        self.caches = PathCache(self.graph)

    def rate_of(self, node) -> float:
        return self.scs_rates.get(node, STATION_RATE_KW)

    def frozen_infrastructure(self):
        scs = [FrozenScs(n, self.rate_of(n), self.scs_waits.get(n, 0.0))
               for n in self.graph.scs_nodes]
        meds = [FrozenMed(self.graph, self.induction, self.med_waits, self.med_battery_kwh)
                ] if self.graph.med_points else []
        return Infrastructure(scs_units=scs, med_units=meds)


@dataclass
class OracleSolution:
    best: RouteAssignment | None
    objective_s: float
    explored: int
    feasible: bool


def solve_exact(inst: OracleInstance, search_budget: int = 2_000_000) -> OracleSolution:
    """Global minimum-travel-time plan for one EV, or infeasibility.

    Depth-first enumeration with per-visit charging and attach decisions;
    an admissible remaining-drive-time bound prunes branches that cannot
    beat the incumbent, so the objective is exact. At each node the search
    charges, then attaches, then drives, trying arcs by drive time plus the
    head's time to the destination, ties by neighbour order; of equal optima
    the first found wins. Each graph node's bound inputs, arcs in search
    order with their caps, and charger are precomputed into a row. An attach
    run follows the frozen charger's ``ride`` and ends early only at a spent
    arc cap. Visits and runs stay plain tuples until the plan is built.
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
        seg_arcs = [arc_row(s.i, s.j) for s in med.segments]

    lb_time = caches.rev(dest, "time")
    min_e_dest = caches.rev(dest, "energy")
    charger_maps = [(c, caches.rev(c, "time"), lb_time[index[c]], caches.rev(c, "energy"))
                    for c in sorted(left)]
    order, times = g.order, g.cost_table("time")
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
        # stable, so ties keep the row's order, neighbour order
        out = tuple(sorted(((order[pos], *arc_row(n, order[pos]), attr.energy_kwh, drive_s)
                            for pos, drive_s, attr in times[k]),
                           key=lambda arc: arc[4] + lb_time[index[arc[0]]]))
        station = (inst.scs_waits.get(n, 0.0), inst.rate_of(n)) if n in scs_set else None
        meet = (med.points.index(n), inst.med_waits.get(n, 0.0)) if n in med_set else None
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
        if eps + _EPS_TOL >= e_dest:
            bound = t_dest
        else:
            bound = INFINITE
            for t, e_to_c, c in via:
                if left[c] and eps + _EPS_TOL >= e_to_c:
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
            if nxt < -_EPS_TOL:
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
        taken = []
        for seg, cur, drive in med.ride(start_idx, eps, Q):
            arc, cap = seg_arcs[seg.index]
            if used[arc] >= cap:
                break
            used[arc] += 1
            taken.append(arc)
            walk.append(seg.j)
            trace.append(cur)
            # MedAttach.build's arguments after the charger; a frozen pass is 0
            qs.append((start_idx, 0, len(taken), meet_leg, wait, drive))
            explore(seg.j, cur, obj + wait + drive, True)
            qs.pop()
        for arc in taken:
            used[arc] -= 1
            walk.pop()
            trace.pop()
        left[node] += 1

    try:
        explore(req.source, req.energy_kwh, 0.0, True)
    finally:
        # the closures reach themselves and each other through their cells;
        # emptying the cells breaks that cycle, so reference counting frees
        # the rows, maps and instance as soon as the solve returns or raises
        explore = _explore_attach = None

    if best_plan is None:
        return OracleSolution(None, INFINITE, explored, False)
    legs, tr, z_list, q_list = best_plan
    assignment = RouteAssignment(
        ev=req.ev, source=req.source, dest=dest, capacity_kwh=Q,
        energy_start_kwh=req.energy_kwh, legs=legs, z_visits=[ScsVisit(*v) for v in z_list],
        q_points=[MedAttach.build(med, *q) for q in q_list], energy_trace=tr,
        total_time_s=best_obj)
    return OracleSolution(assignment, best_obj, explored, True)


# -- constraint-by-constraint verification ------------------------------------


def verify(inst: OracleInstance, a: RouteAssignment, tol: float = 1e-6) -> str:
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
        if abs(v.wait_s - inst.scs_waits.get(v.node, 0.0)) > tol:
            return "violated(4)"
    for att in a.q_points:
        if abs(att.wait_s - inst.med_waits.get(att.meet_node, 0.0)) > tol:
            return "violated(4)"

    # (8) wherever the EV stands it can still reach the destination or a charger
    min_e_dest = inst.caches.rev(a.dest, "energy")
    chargers = sorted(set(g.scs_nodes) | set(g.med_points))
    min_e_charger = [inst.caches.rev(c, "energy") for c in chargers]
    for node, eps_here in zip(a.legs, levels):
        pos = g.index[node]
        if eps_here + _EPS_TOL >= min_e_dest[pos]:
            continue
        if any(eps_here + _EPS_TOL >= dist[pos] for dist in min_e_charger):
            continue
        return "violated(8)"

    # (9)-(11) decision domains: arc multiplicities and per-charger visit budgets
    if any(n > g.visit_cap(i) * g.visit_cap(j) for (i, j), n in Counter(a.x_arcs).items()):
        return "violated(9)"
    if any(n > g.visit_cap(node) for node, n in Counter(v.node for v in a.z_visits).items()):
        return "violated(10)"
    meets = Counter(att.meet_node for att in a.q_points)
    if any(node not in g.med_points or n > g.visit_cap(node) for node, n in meets.items()):
        return "violated(11)"
    return "ok"


# -- instance (de)serialization ------------------------------------------------


# the kind of each key an instance block may hold; parse_graph reads the graph
_INSTANCE_KEYS = {"graph": AS_IS, "request": OBJECT, "scs": OBJECTS, "med": OBJECT,
                  "vehicle": OBJECT, "visit_limit": INTEGER}
_REQUEST_KEYS = {"ev": ("text", str), "source": NODE_ID, "dest": NODE_ID,
                 "capacity_kwh": NUMBER, "energy_kwh": NUMBER}
_SCS_KEYS = {"node": NODE_ID, "wait_s": NUMBER, "rate_kw": NUMBER}
_MED_KEYS = {"c_ind": NUMBER, "p_ind_kw": NUMBER, "battery_kwh": NUMBER, "wait_s": (
    "an object mapping integer cycle points to numbers",
    lambda waits: {int(k): float(v) for k, v in OBJECT[1](waits).items()})}


def _med(med: dict) -> tuple:
    """A med block's induction (None without ``c_ind``), battery and waits."""
    return (InductionParams(med["c_ind"], med["p_ind_kw"]) if "c_ind" in med else None,
            med.get("battery_kwh", INFINITE), med.get("wait_s", {}))


def instance_from_json(doc) -> OracleInstance:
    """Build an instance from the CLI's JSON schema."""
    doc = read_block(doc, "instance", _INSTANCE_KEYS, ("graph", "request"), OracleError)
    request = read_block(doc["request"], "request", _REQUEST_KEYS,
                         ("source", "dest", "capacity_kwh", "energy_kwh"), OracleError,
                         build=lambda r: EvRequest(r.get("ev", "ev0"), r["source"], r["dest"],
                                                   r["capacity_kwh"], r["energy_kwh"]))
    scs = read_entries(doc.get("scs", ()), "scs", _SCS_KEYS, ("node",), OracleError)
    med = doc.get("med", {})
    induction, battery_kwh, med_waits = read_block(
        med, "med", _MED_KEYS, ("p_ind_kw",) if "c_ind" in med else (), OracleError, build=_med)
    vehicle = read_params(doc["vehicle"], "vehicle", VehicleParams, OracleError) \
        if "vehicle" in doc else None
    g = load_graph(doc["graph"], vehicle=vehicle,
                   visit_limit=doc.get("visit_limit", VISIT_LIMIT_DEFAULT))
    return OracleInstance(g, request, {s["node"]: s.get("wait_s", 0.0) for s in scs},
                          {s["node"]: s.get("rate_kw", STATION_RATE_KW) for s in scs},
                          med_waits, induction, battery_kwh)
