"""Shared fixtures: hand-built graphs and seeded random instance generators."""

import gc
import os
import random
from array import array
from heapq import heappop, heappush

import pytest
from hypothesis import settings

from medsim import sim
from medsim.energy import InductionParams, VehicleParams, air_force, rolling_force
from medsim.oracle import OracleInstance
from medsim.road_graph import ArcAttr, build_graph, grid_doc, load_graph
from medsim.routing import (_EPS_TOL, INFINITE, EvRequest, NoPath, PathCache, Stranded,
                            _Candidate, _plus_stops)

settings.register_profile("ci", derandomize=True)
settings.register_profile("fresh", derandomize=False)


def pytest_configure(config):
    # CI runs replay the same examples every time, so a property test cannot
    # flake there; local runs keep drawing fresh ones. ``pytest
    # --hypothesis-profile fresh`` draws fresh ones under CI too, so a
    # property that fails only on rare draws can still show up there.
    if os.environ.get("CI") and not config.getoption("hypothesis_profile", None):
        settings.load_profile("ci")


TEST_VEHICLE = VehicleParams(mass_kg=1500.0, mu=0.01, drag_c=0.35, area_m2=2.0,
                             air_density=1.2, efficiency=0.75, capacity_kwh=50.0)
TEST_INDUCTION = InductionParams(c_ind=0.75, p_ind_kw=40.0)


# -- reference helpers; the walks read each arc from the graph, not a cache --


def dijkstra(g, source, target, weight: str = "time"):
    """Minimum-cost path and its cost from a fresh path cache; lexicographic tie-break.

    The cost is summed along the returned path in path order, so that
    independent implementations walking the same arcs get bit-identical
    totals.
    """
    if source not in g.nodes or target not in g.nodes:
        raise NoPath("endpoint not in graph")
    if source == target:
        return [source], 0.0
    path = PathCache(g).path(source, target, weight)
    return list(path), path.drive_s if weight == "time" else path.energy_kwh


def route_time(g, path) -> float:
    t = 0.0
    for i, j in zip(path, path[1:]):
        t += g.arc(i, j).drive_time_s
    return t


def route_energy(g, path) -> float:
    e = 0.0
    for i, j in zip(path, path[1:]):
        e += g.arc(i, j).energy_kwh
    return e


def ref_dijkstra_dist(adj, source):
    """``routing._dijkstra_dist`` as a heap search on every table, uniform or not: the
    distances by position from ``source`` over the cost table ``adj``, as an ``array('d')``."""
    dist = [INFINITE] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        for nbr, cost, _ in adj[node]:
            nd = d + cost
            if nd < dist[nbr]:
                dist[nbr] = nd
                heappush(heap, (nd, nbr))
    return array("d", dist)


def ref_plan_findings(g, a, tol: float):
    """``routing._plan_findings`` in its plain form: each arc read through ``g.arc``,
    and every check made at every node of the walk as the level is folded.

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


def fresh_run(scenario, **kw):
    """``sim.run`` on a network loaded for it alone: the remembered one is forgotten first."""
    sim._last_network = None
    return sim.run(scenario, **kw)


def route_level(g, path, energy_start_kwh: float):
    """The battery level at a path's end, folded arc by arc; None if it runs below zero.

    The running level must stay nonnegative at every intermediate node, not
    only at the end.
    """
    eps = energy_start_kwh
    for i, j in zip(path, path[1:]):
        attr = g.arc(i, j)
        if attr is None:
            raise NoPath(f"path uses missing arc ({i},{j})")
        eps -= attr.energy_kwh
        if eps < -_EPS_TOL:
            return None
    return eps


def route_feasible(g, path, energy_start_kwh: float) -> bool:
    """Energy feasibility of a path with the battery it starts on."""
    return route_level(g, path, energy_start_kwh) is not None


def objective_time(g, a) -> float:
    """Travel time recomputed from the decision variables alone.

    Drive time over traversed arcs, charge plus wait at station visits, and
    wait at attach points; attached driving is already drive time and is not
    counted twice.
    """
    t = 0.0
    for i, j in a.x_arcs:
        t += g.arc(i, j).drive_time_s
    t += sum(v.wait_s + v.charge_s for v in a.z_visits)
    return t + sum(p.wait_s for p in a.q_points)


def fleet_audit(g, metrics, tol: float = 1e-6):
    """Problems in a run's plans against its final mobile-charger ledgers; empty when clean.

    Each served EV's plan is walked in time from its departure: an arc adds
    its drive time, read from ``g``, a station visit its wait and charge,
    and an attach its wait, which ends at the meet. Each attach must match
    one booking of its charger by EV and segment keys, starting at the meet
    and ending ``attach_s`` later. The meet must be a time the charger's
    schedule puts it at the meet point, ``start_s + cum_starts[idx] + pass
    * cycle_time_s`` with ``pass >= 0``, where ``(idx, pass)`` is the first
    key. Then each charger's booked segments are summed per pass, and no
    pass may dispense more than ``battery_kwh``. The sums read the
    segments' induced energies, not the ledger's running totals.
    """
    problems = []
    meds = metrics.infrastructure.med_units
    unmatched = {id(med): list(med.bookings) for med in meds}
    for a in filter(None, metrics.assignments):
        stops = {v.leg_index: v.wait_s + v.charge_s for v in a.z_visits}
        attaches = {q.leg_index: q for q in a.q_points}
        t = a.depart_s
        for k, node in enumerate(a.legs):
            t += stops.get(k, 0.0)
            q = attaches.get(k)
            if q is not None:
                t += q.wait_s
                problems += _audit_attach(meds, unmatched, a.ev, q, t, tol)
            if k + 1 < len(a.legs):
                t += g.arc(node, a.legs[k + 1]).drive_time_s
    for med in meds:
        problems += [f"{b.ev}: a booking no plan holds" for b in unmatched[id(med)]]
        spent = {}
        for b in med.bookings:
            for seg, pass_no in b.segment_keys:
                spent[pass_no] = spent.get(pass_no, 0.0) + med.segments[seg].induced_kwh
        problems += [f"pass {p} dispenses {e} kWh, more than the {med.battery_kwh} kWh battery"
                     for p, e in sorted(spent.items()) if e > med.battery_kwh + tol]
    return problems


def _audit_attach(meds, unmatched, ev, q, meet_s, tol):
    """Problems of one attach met at ``meet_s``: its booking and the charger's schedule."""
    for med in meds:
        for b in unmatched[id(med)]:
            if b.ev == ev and b.segment_keys == q.booking_keys:
                unmatched[id(med)].remove(b)
                idx, pass_no = q.booking_keys[0]
                due = med.start_s + med.cum_starts[idx] + pass_no * med.cycle_time_s
                found = []
                if med.points[idx] != q.meet_node:
                    found.append(f"{ev}: meets at {q.meet_node}, not at cycle point {idx}")
                if pass_no < 0:
                    found.append(f"{ev}: books pass {pass_no}, before the charger starts")
                if not abs(meet_s - due) <= tol * max(1.0, abs(due)):
                    found.append(f"{ev}: meets at {meet_s} s, the charger is there at {due} s")
                if not (abs(b.start_s - meet_s) <= tol * max(1.0, meet_s)
                        and abs(b.end_s - (meet_s + q.attach_s)) <= tol * max(1.0, meet_s)):
                    found.append(f"{ev}: booked for [{b.start_s}, {b.end_s}] s, "
                                 f"rides from {meet_s} s for {q.attach_s} s")
                return found
    return [f"{ev}: no booking holds the keys {q.booking_keys}"]


# -- reference copies of the router's scoring, for differential tests -------
#
# Each keeps the plain form the router once had: every try of the cycle-pass
# search builds its segment keys, clamps call min(), and every scored point
# becomes a candidate before a min. The arrival level is folded arc by arc
# and checked after every arc, by route_level above.


def ref_pass_shares(unit, keys):
    """Each pass's share of a span's energy: its segments' induced energies summed in order."""
    shares = {}
    for seg, pass_no in keys:
        shares[pass_no] = shares.get(pass_no, 0.0) + unit.segments[seg].induced_kwh
    return shares


def ref_waiting(unit, start_idx, ev_arrival_s, n_segments):
    """``MedState.waiting``, building each try's keys by hand.

    A try fits when no key is booked and every pass the keys touch holds
    its share on top of what it has dispensed already.
    """
    u = len(unit.segments)
    arrival = unit.arrival_at(start_idx, ev_arrival_s)
    while True:
        pass_no = unit.pass_number(start_idx, arrival)
        keys = [((start_idx + k) % u, pass_no + (start_idx + k) // u) for k in range(n_segments)]
        if not any(k in unit.segment_bookings for k in keys) and all(
                unit.pass_dispensed.get(p, 0.0) + share <= unit.battery_kwh + _EPS_TOL
                for p, share in ref_pass_shares(unit, keys).items()):
            return arrival - ev_arrival_s, pass_no
        arrival += unit.cycle_time_s


def ref_plan_med_span(unit, start_idx, eps_at_meet, capacity, need_to_finish):
    """``routing._plan_med_span`` with its clamp through ``min``: the ride as a prefix."""
    segs = unit.segments
    u = len(segs)
    eps = eps_at_meet
    attach_s = 0.0
    per_pass = {}  # the energy the ride takes from each cycle pass
    ride = []
    for n in range(unit.max_passes * u):
        seg = segs[(start_idx + n) % u]
        pass_no = (start_idx + n) // u
        per_pass[pass_no] = per_pass.get(pass_no, 0.0) + seg.induced_kwh
        if per_pass[pass_no] > unit.battery_kwh + _EPS_TOL:
            return None
        eps = min(capacity, eps - seg.energy_kwh + seg.induced_kwh)
        if eps < -_EPS_TOL:
            return None
        attach_s += seg.drive_s
        ride.append((seg, eps, attach_s))
        if eps >= need_to_finish(seg.j) - _EPS_TOL:
            return tuple(ride)
    return None


def ref_attach_run(unit, start_idx, eps, capacity):
    """Every prefix of ``MedState.ride``, as a list, stepped out by hand.

    Item ``n`` is ``(segment, level, attach_s)`` after riding
    ``n + 1`` segments; the list ends where the run must stop. The budget
    is per cycle pass: the energy taken from each pass, numbered as the
    segment keys number it, is summed apart.
    """
    segs = unit.segments
    prefixes = []
    per_pass = {}
    for n in range(unit.max_passes * len(segs)):
        seg = segs[(start_idx + n) % len(segs)]
        _, level, attach_s = prefixes[-1] if prefixes else (None, eps, 0.0)
        pass_no = (start_idx + n) // len(segs)
        per_pass[pass_no] = per_pass.get(pass_no, 0.0) + seg.induced_kwh
        level = min(capacity, level - seg.energy_kwh + seg.induced_kwh)
        if per_pass[pass_no] > unit.battery_kwh + _EPS_TOL or level < -_EPS_TOL:
            break
        prefixes.append((seg, level, attach_s + seg.drive_s))
    return prefixes


def ref_best_energy_point(g, caches, request, at, energy_kwh, now, infra):
    """``routing.find_best_energy_point``: every scored point a candidate, then ``min``.

    Each candidate is kept with its score, which the router's candidate does
    not store.
    """
    Q = request.capacity_kwh
    rev_time = caches.rev(request.dest, "time")
    candidates = []  # (score, kind != "scs", point, candidate)

    def need_to_finish(node):
        try:
            return caches.path(node, request.dest, "time").energy_kwh
        except NoPath:
            return INFINITE

    points = [("scs", unit, None, unit.node) for unit in infra.scs_units]
    points += [("med", unit, idx, point) for unit in infra.med_units
               for idx, point in enumerate(unit.points)]
    for kind, unit, idx, node in points:
        try:
            path = caches.path(at, node, "time")
        except NoPath:
            continue
        arrive = route_level(g, path, energy_kwh)
        if arrive is None:
            continue
        drive = path.drive_s
        if kind == "scs":
            if arrive >= Q - 1e-12:
                continue
            finish = rev_time[g.index[node]]
            if finish == INFINITE:
                continue
            wait = unit.wait_s(now, drive)
            charge = unit.charge_s(arrive, Q)
            candidates.append((drive + wait + charge + finish, False, node,
                               _Candidate(kind, unit, node, path, wait, charge_s=charge)))
            continue
        if arrive >= need_to_finish(node) - _EPS_TOL:
            continue
        ride = ref_plan_med_span(unit, idx, arrive, Q, need_to_finish)
        if ride is None:
            continue
        last, _, attach_s = ride[-1]
        finish = rev_time[g.index[last.j]]
        if finish == INFINITE:
            continue
        wait, pass_no = ref_waiting(unit, idx, now + drive, len(ride))
        candidates.append((drive + wait + attach_s + finish, True, node,
                           _Candidate(kind, unit, node, path, wait, ride=ride, start_idx=idx,
                                      pass_no=pass_no)))
    if not candidates:
        raise Stranded(f"EV {request.ev}: no feasible energy point from node {at}")
    return min(candidates, key=lambda c: c[:3])[3]


def line_graph(n=6, dt=100.0, energy=1.0, scs=(3,), visit_limit=2):
    """Bidirectional line 0-1-...-(n-1) with uniform arcs."""
    arcs = {}
    for k in range(n - 1):
        arcs[(k, k + 1)] = ArcAttr(dt, energy, 1000.0)
        arcs[(k + 1, k)] = ArcAttr(dt, energy, 1000.0)
    return build_graph(range(n), arcs, scs_list=list(scs), visit_limit=visit_limit)


def ring_with_spurs(ring_dt=200.0, ring_energy=0.5, spur_dt=100.0, spur_energy=0.8,
                    visit_limit=2):
    """4-point cycle 0-1-2-3 with source spur 4-0 and destination spur 2-5."""
    arcs = {}
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        arcs[(i, j)] = ArcAttr(ring_dt, ring_energy, 2000.0)
        arcs[(j, i)] = ArcAttr(ring_dt, ring_energy, 2000.0)
    for i, j in ((4, 0), (2, 5)):
        arcs[(i, j)] = ArcAttr(spur_dt, spur_energy, 1000.0)
        arcs[(j, i)] = ArcAttr(spur_dt, spur_energy, 1000.0)
    return build_graph(range(6), arcs, med_cycle=[0, 1, 2, 3], visit_limit=visit_limit)


def sparse_id(k):
    """An order-preserving relabelling whose ids are never node positions."""
    return 1000 + 7 * k


def relabelled(g, new_id=sparse_id):
    """``g`` on the nodes ``new_id(k)``, with every arc and charger moved along."""
    return build_graph([new_id(n) for n in g.order],
                       {(new_id(i), new_id(j)): attr for (i, j), attr in g.arcs.items()},
                       scs_list=[new_id(n) for n in g.scs_nodes],
                       med_cycle=[new_id(n) for n in g.med_points],
                       visit_limit=g.visit_limit, entries=[new_id(n) for n in g.entries])


def relabelled_instance(inst, new_id=sparse_id):
    """``inst`` on :func:`relabelled` nodes, with its request and waits moved along."""
    r = inst.request
    return OracleInstance(
        relabelled(inst.graph, new_id),
        EvRequest(r.ev, new_id(r.source), new_id(r.dest), r.capacity_kwh, r.energy_kwh),
        {new_id(n): w for n, w in inst.scs_waits.items()},
        {new_id(n): rate for n, rate in inst.scs_rates.items()},
        {new_id(n): w for n, w in inst.med_waits.items()},
        inst.induction, inst.med_battery_kwh)


@pytest.fixture
def gc_off():
    """Python's cyclic garbage collector off, so only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def six_line():
    return line_graph()


@pytest.fixture
def med_ring():
    return ring_with_spurs()


def random_oracle_instance(seed: int) -> OracleInstance:
    """Small random instance within the oracle's node bound, which counts
    each charger ``visit_limit`` times.

    Mix of line graphs with one station, 3x4 grids with one or two stations,
    and ring-with-spurs topologies with a mobile charger (optionally plus a
    station), all with randomized arc weights, waits, and battery state.
    """
    rng = random.Random(seed)
    kind = rng.choice(["line", "grid", "ring", "ring_scs"])
    induction = None
    med_waits = {}
    scs_waits, scs_rates = {}, {}

    if kind == "line":
        n = rng.randint(5, 8)
        dt = rng.uniform(40.0, 300.0)
        energy = rng.uniform(0.4, 1.5)
        scs = [rng.randrange(n)]
        g = line_graph(n, dt, energy, scs)
        nodes = list(range(n))
    elif kind == "grid":
        rows, cols = 3, 4
        doc = grid_doc(rows, cols, arc_len_m=rng.uniform(900, 2500),
                       speed_mps=rng.uniform(9, 15))
        n_scs = rng.choice([1, 2])
        all_nodes = list(range(rows * cols))
        scs = rng.sample(all_nodes, n_scs)
        doc["scs"] = scs
        g = load_graph(doc, vehicle=TEST_VEHICLE)
        nodes = all_nodes
    else:
        ring_e = rng.uniform(0.3, 0.9)
        spur_e = rng.uniform(0.4, 1.2)
        arcs = {}
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
            arcs[(i, j)] = ArcAttr(rng.uniform(80, 400), ring_e, 2000.0)
            arcs[(j, i)] = ArcAttr(rng.uniform(80, 400), ring_e, 2000.0)
        for i, j in ((4, 0), (2, 5), (5, 6)):
            arcs[(i, j)] = ArcAttr(rng.uniform(50, 250), spur_e, 1000.0)
            arcs[(j, i)] = ArcAttr(rng.uniform(50, 250), spur_e, 1000.0)
        scs = [6] if kind == "ring_scs" else []
        g = build_graph(range(7), arcs, scs_list=scs, med_cycle=[0, 1, 2, 3])
        induction = InductionParams(rng.uniform(0.7, 0.8), rng.uniform(20, 50))
        for p in (0, 1, 2, 3):
            med_waits[p] = rng.uniform(0.0, 1200.0)
        nodes = list(range(7))

    for s in scs:
        scs_waits[s] = rng.uniform(0.0, 1500.0)
        scs_rates[s] = rng.choice([19.2, 22.0, 50.0])

    source, dest = rng.sample(nodes, 2)
    capacity = rng.uniform(6.0, 14.0)
    # scale the starting energy around the direct route's need for a mix of
    # feasible and infeasible directs
    caches = PathCache(g)
    try:
        direct_need = route_energy(g, caches.path(source, dest, "time"))
    except NoPath:
        direct_need = capacity
    frac = rng.uniform(0.3, 1.4)
    energy_start = max(0.0, min(capacity, frac * direct_need))
    request = EvRequest(f"r{seed}", source, dest, capacity, energy_start)
    return OracleInstance(g, request, scs_waits, scs_rates, med_waits, induction,
                          med_battery_kwh=rng.choice([float("inf"), 200.0, 60.0]))


def heterogeneous_scenario(seed: int, one_way: bool) -> sim.Scenario:
    """A criterion-1-style scenario on a random road network that is not a grid.

    12-60 points uniform in the unit square, each linked both ways to its 3
    nearest neighbours; with ``one_way`` each of those arcs is then dropped
    with probability 0.25, so some pairs of nodes are not connected. A
    4-point charger cycle on random nodes is closed with added arcs, and one
    station sits off it. Each arc has its own speed, uniform in 8-20 m/s,
    and its Euclidean length, scaled so that about sqrt(n) arcs cost 1.8-3.9
    kWh, as criterion 1 scales its grids. No two arcs share an ``ArcAttr``,
    so the router walks every path it prices. Mode, level and drop rate are
    drawn as in criterion 1, with 10-100 EVs.
    """
    rng = random.Random(f"heterogeneous:{int(one_way)}:{seed}")
    n = rng.randint(12, 60)
    pts = [(rng.random(), rng.random()) for _ in range(n)]

    def dist(i, j):
        return ((pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2) ** 0.5

    pairs = set()
    for i in range(n):
        for j in sorted((j for j in range(n) if j != i), key=lambda j: (dist(i, j), j))[:3]:
            pairs |= {(i, j), (j, i)}
    if one_way:
        pairs = {p for p in sorted(pairs) if rng.random() >= 0.25}
    cycle = rng.sample(range(n), 4)
    pairs |= set(zip(cycle, cycle[1:] + cycle[:1]))
    station = rng.choice([k for k in range(n) if k not in cycle])

    mean_len = sum(dist(i, j) for i, j in pairs) / len(pairs)
    vp = sim.DEFAULT_VEHICLE
    per_m = vp.efficiency * (rolling_force(vp) + air_force(vp, 14.0)) / 3.6e6
    scale = rng.uniform(1.2, 2.6) * 1.5 / (per_m * mean_len * n ** 0.5)
    arcs = [{"i": i, "j": j, "length_m": scale * dist(i, j), "speed_mps": rng.uniform(8.0, 20.0)}
            for i, j in sorted(pairs)]
    return sim.Scenario(
        graph={"nodes": list(range(n)), "arcs": arcs, "scs": [station], "med_cycle": cycle},
        mode=rng.choice(sim.MODES), ev_count=rng.randint(10, 100),
        level=rng.choice(sorted(sim.LEVEL_TARGETS)), seed=seed,
        block_prob=rng.choice([0.0, 0.05, 0.1]), scs=[(station, 19.2)], meds=[sim.MedSpec()])
