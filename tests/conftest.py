"""Shared fixtures: hand-built graphs and seeded random instance generators."""

import gc
import os
import random

import pytest
from hypothesis import settings

from medsim.energy import InductionParams, VehicleParams
from medsim.oracle import OracleInstance
from medsim.road_graph import ArcAttr, build_graph, grid_doc, load_graph
from medsim.routing import (_EPS_TOL, INFINITE, EvRequest, NoPath, PathCache, Stranded,
                            _Candidate)

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


def route_feasible(g, path, energy_start_kwh: float) -> bool:
    """Energy feasibility of a path with the battery it starts on.

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
            return False
    return True


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


# -- reference copies of the router's scoring, for differential tests -------
#
# Each keeps the plain form the router once had: every try of the cycle-pass
# search builds its segment keys, clamps call min(), and every scored point
# becomes a candidate before a min. Feasibility is checked after every arc,
# by route_feasible above.


def ref_waiting(unit, start_idx, ev_arrival_s, n_segments):
    """``MedState.waiting``, building each try's keys with ``segment_keys``."""
    arrival = unit.arrival_at(start_idx, ev_arrival_s)
    while True:
        pass_no = unit.pass_number(start_idx, arrival)
        keys = unit.segment_keys(start_idx, pass_no, n_segments)
        if not any(k in unit.segment_bookings for k in keys):
            return arrival - ev_arrival_s, pass_no
        arrival += unit.cycle_time_s


def ref_plan_med_span(unit, start_idx, eps_at_meet, capacity, need_to_finish):
    """``routing._plan_med_span`` with its clamp through ``min``."""
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
        eps = min(capacity, eps - seg.energy_kwh + seg.induced_kwh)
        if eps < -_EPS_TOL:
            return None
        attach_s += seg.drive_s
        ridden.append(seg)
        if eps >= need_to_finish(seg.j) - _EPS_TOL:
            return tuple(ridden), eps, attach_s
    return None


def ref_best_energy_point(g, caches, request, at, energy_kwh, now, infra, gate=None):
    """``routing.find_best_energy_point``: every scored point a candidate, then ``min``."""
    Q = request.capacity_kwh
    rev_time = caches.rev(request.dest, "time")
    candidates = []

    def need_to_finish(node):
        try:
            return caches.path(node, request.dest, "time").energy_kwh
        except NoPath:
            return INFINITE

    points = [("scs", unit, None, unit.node) for unit in infra.scs_units]
    points += [("med", unit, idx, point) for unit in infra.med_units
               for idx, point in enumerate(unit.points)]
    for kind, unit, idx, node in points:
        if gate is not None and not gate(kind, node):
            continue
        try:
            path = caches.path(at, node, "time")
        except NoPath:
            continue
        if not route_feasible(g, path, energy_kwh):
            continue
        drive = path.drive_s
        arrive = max(0.0, energy_kwh - path.energy_kwh)
        if kind == "scs":
            if arrive >= Q - 1e-12:
                continue
            finish = rev_time[g.index[node]]
            if finish == INFINITE:
                continue
            wait = unit.wait_s(now, drive)
            charge = unit.charge_s(arrive, Q)
            candidates.append(_Candidate(kind, unit, node, path, drive + wait + charge + finish,
                                         wait, charge_s=charge))
            continue
        if arrive >= need_to_finish(node) - _EPS_TOL:
            continue
        span = ref_plan_med_span(unit, idx, arrive, Q, need_to_finish)
        if span is None:
            continue
        segments, eps_after, attach_s = span
        finish = rev_time[g.index[segments[-1].j]]
        if finish == INFINITE:
            continue
        wait, pass_no = ref_waiting(unit, idx, now + drive, len(segments))
        candidates.append(_Candidate(kind, unit, node, path, drive + wait + attach_s + finish,
                                     wait, segments=segments, start_idx=idx, pass_no=pass_no,
                                     attach_s=attach_s, eps_after=eps_after))
    if not candidates:
        raise Stranded(f"EV {request.ev}: no feasible energy point from node {at}")
    return min(candidates, key=lambda c: (c.score, c.kind != "scs", c.point))


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
        inst.induction, inst.med_battery_kwh, inst.default_rate_kw)


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
