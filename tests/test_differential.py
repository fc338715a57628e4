"""Differential tests: the router's scoring and self-check against plain reference copies.

``MedState.waiting``, ``find_best_energy_point`` and ``_arrival_level``
compute what their references in ``conftest.py`` compute (``ref_waiting``,
``ref_best_energy_point`` and the per-arc ``route_level``), with less
work per try, point and arc; ``MedState.ride`` and ``_plan_med_span`` ride
the charger as ``ref_attach_run`` and ``ref_plan_med_span`` do, and
``_plan_findings`` checks a plan as ``ref_plan_findings`` does. Each test
draws inputs on which the two could part and demands the same answer bit
for bit (McKeeman 1998, "Differential testing for software").
"""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from medsim import sim
from medsim.charging import Booking, Infrastructure, MedState, ScsState
from medsim.energy import InductionParams
from medsim.oracle import solve_exact
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import (EvRequest, PathCache, RouteAssignment, ScsVisit, Stranded,
                            _arrival_level, _plan_findings, _plan_med_span,
                            find_best_energy_point, find_shortest_path)
from medsim.sim import default_scenario
from tests.conftest import (TEST_INDUCTION, line_graph, random_oracle_instance,
                            ref_attach_run, ref_best_energy_point, ref_pass_shares,
                            ref_plan_findings, ref_plan_med_span, ref_waiting, route_level)
from tests.test_acceptance import random_scenario

# whole seconds plus an offset that rounds, so sums tie and still round by order
DRIVE_S = st.builds(lambda whole, frac: whole + frac, st.integers(1, 9),
                    st.sampled_from((0.0, 0.1, 0.3)))
ENERGY = st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False)


def ring(drives, visit_limit):
    """A one-way cycle 0 -> 1 -> ... -> 0 that the mobile charger loops."""
    u = len(drives)
    arcs = {(k, (k + 1) % u): ArcAttr(drives[k], 0.1, 10.0) for k in range(u)}
    return build_graph(range(u), arcs, med_cycle=list(range(u)), visit_limit=visit_limit)


@st.composite
def waiting_cases(draw):
    """A charger with a random ledger, a start time and a query on it.

    ``wall`` books the query's first segment for that many consecutive
    passes from the first one the EV could ride, so a search makes at least
    ``wall + 1`` tries. The ledger also holds random keys on the passes
    around that first one, so a span that wraps past the cycle start meets
    bookings one pass on, and random energy already dispensed on those
    passes. The charger's battery holds one to three whole passes' worth,
    or is infinite, so a pass can be too drained for the span but no span
    is too big for an empty pass. An EV that reaches the cycle before the
    charger starts rides pass 0 at the earliest.
    """
    u = draw(st.integers(2, 5))
    g = ring(draw(st.lists(DRIVE_S, min_size=u, max_size=u)), draw(st.integers(1, 3)))
    full_pass = sum(ref_pass_shares(MedState(g, TEST_INDUCTION), [(k, 0) for k in range(u)])
                    .values())
    unit = MedState(g, TEST_INDUCTION,
                    battery_kwh=draw(st.one_of(st.just(math.inf),
                                               st.floats(1.0, 3.0).map(full_pass.__mul__))),
                    start_s=draw(st.one_of(st.just(0.0), st.floats(0.1, 5000.0))))
    start_idx = draw(st.integers(0, u - 1))
    n_segments = draw(st.integers(1, unit.max_passes * u))
    ev_arrival_s = draw(st.floats(0.0, 20000.0))
    first = unit.pass_number(start_idx, unit.arrival_at(start_idx, ev_arrival_s))
    for seg, ahead in draw(st.lists(st.tuples(st.integers(0, u - 1), st.integers(-3, 16)),
                                    max_size=30)):
        unit.segment_bookings[(seg, first + ahead)] = "other"
    budget = unit.battery_kwh if unit.battery_kwh < math.inf else 3 * full_pass
    for ahead, share in draw(st.lists(st.tuples(st.integers(-1, 16), st.floats(0.0, 1.0)),
                                      max_size=10)):
        unit.pass_dispensed[first + ahead] = share * budget
    wall = draw(st.integers(0, 14))
    for k in range(wall):
        unit.segment_bookings[(start_idx, first + k)] = "wall"
    return unit, start_idx, ev_arrival_s, n_segments, wall


class TestWaiting:
    @settings(max_examples=200, deadline=None)
    @given(case=waiting_cases())
    def test_matches_the_reference(self, case):
        unit, start_idx, ev_arrival_s, n_segments, wall = case
        wait, pass_no = unit.waiting(start_idx, ev_arrival_s, n_segments)
        ref_wait, ref_pass = ref_waiting(unit, start_idx, ev_arrival_s, n_segments)
        assert repr(wait) == repr(ref_wait) and pass_no == ref_pass
        first = unit.pass_number(start_idx, unit.arrival_at(start_idx, ev_arrival_s))
        assert pass_no >= first + wall

    def test_a_wall_of_twelve_passes_takes_thirteen_tries(self):
        # the EV reaches the cycle before the charger starts, so pass 0 is its first
        unit = MedState(ring([100.0, 200.3, 50.1], 2), TEST_INDUCTION, start_s=700.0)
        first = unit.pass_number(1, unit.arrival_at(1, 0.0))
        assert first == 0
        for k in range(12):
            unit.segment_bookings[(1, first + k)] = "wall"
        wait, pass_no = unit.waiting(1, 0.0, 2)
        ref_wait, ref_pass = ref_waiting(unit, 1, 0.0, 2)
        assert repr(wait) == repr(ref_wait) and pass_no == ref_pass == first + 12


@st.composite
def scoring_cases(draw):
    """A random one-way digraph with a station and a charger cycle, live
    ledgers on the units there, and one EV asking which of the units it may
    book to charge at.

    A one-way tour through every node keeps each node reachable; the
    charger's cycle and up to ``2n`` random one-way arcs come on top.
    """
    n = draw(st.integers(5, 10))
    nodes = list(range(n))
    tour = draw(st.permutations(nodes))
    cycle = draw(st.permutations(nodes))[:draw(st.integers(2, 4))]
    station = draw(st.sampled_from([v for v in nodes if v not in cycle]))
    ring_arcs = {(cycle[k], cycle[(k + 1) % len(cycle)]) for k in range(len(cycle))}
    pairs = {(tour[k], tour[(k + 1) % n]) for k in range(n)} | ring_arcs
    pairs |= set(draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                               .filter(lambda p: p[0] != p[1]), max_size=2 * n)))
    # cheap cycle arcs, so riding the charger can pay off
    arcs = {p: ArcAttr(draw(DRIVE_S), draw(ENERGY) / (10.0 if p in ring_arcs else 1.0), 10.0)
            for p in sorted(pairs)}
    g = build_graph(nodes, arcs, scs_list=[station], med_cycle=cycle,
                    visit_limit=draw(st.integers(1, 3)))

    scs = ScsState(station, draw(st.sampled_from((19.2, 50.0))))
    booked_until = draw(st.sampled_from((0.0, 5.0, 30.0, 300.0)))
    if booked_until:
        scs.bookings.append(Booking("other", 0.0, booked_until))
    stations = [scs]
    if draw(st.booleans()):
        # a twin station scores the same; the first one scored must win
        stations.append(ScsState(station, scs.rate_kw))
        stations[-1].bookings.extend(scs.bookings)
    meds = []
    for _ in range(draw(st.integers(1, 2))):  # two chargers share the cycle
        p_ind_kw = draw(st.sampled_from((400.0, 4000.0, 20000.0)))
        med = MedState(g, InductionParams(0.75, p_ind_kw),
                       battery_kwh=draw(st.sampled_from((200.0, 1.0, 5.0))),
                       start_s=draw(st.sampled_from((0.0, 3.0, 50.0))))
        u = len(med.segments)
        for key in draw(st.lists(st.tuples(st.integers(0, u - 1), st.integers(-2, 6)),
                                 max_size=12)):
            med.segment_bookings[key] = "other"
        meds.append(med)
    # the chargers the EV may book, as sim.build_infrastructure and sim.run
    # pick them: all, stations only, mobile chargers only, none, or a drawn
    # sub-list of either kind, so one of two twins can be left out
    offered = draw(st.sampled_from(("all", "all", "all", "scs", "med", "none", "some")))
    if offered == "some":
        stations = [unit for unit in stations if draw(st.booleans())]
        meds = [unit for unit in meds if draw(st.booleans())]
    infra = Infrastructure(stations if offered in ("all", "scs", "some") else [],
                           meds if offered in ("all", "med", "some") else [])

    source, dest = draw(st.permutations(nodes))[:2]
    capacity = draw(st.sampled_from((2.0, 5.0, 10.0)))
    energy = draw(st.floats(0.0, capacity))
    request = EvRequest("ev", source, dest, capacity, energy)
    now = draw(st.sampled_from((0.0, 2.0, 40.0, 1000.0)))
    return g, request, infra, now


class TestChosenCandidate:
    @settings(max_examples=200, deadline=None)
    @given(case=scoring_cases())
    def test_matches_the_reference(self, case):
        g, request, infra, now = case
        caches = PathCache(g)
        args = (g, caches, request, request.source, request.energy_kwh, now, infra)
        try:
            ref = ref_best_energy_point(*args)
        except Stranded:
            ref = None
        try:
            got = find_best_energy_point(*args)
        except Stranded:
            got = None
        if ref is None or got is None:
            assert ref is got
            return
        assert got.unit is ref.unit and got.path is ref.path
        assert {k: repr(v) for k, v in vars(got).items()} == \
            {k: repr(v) for k, v in vars(ref).items()}


class TestPathFeasible:
    @settings(max_examples=300, deadline=None)
    @given(energies=st.lists(st.one_of(ENERGY, st.sampled_from((0.0, 1e-10, 1e-9))),
                             max_size=12),
           slack=st.one_of(st.floats(-5.0, 5.0),
                           st.sampled_from((-2e-9, -1e-9, -5e-10, 0.0, 1e-9))))
    def test_matches_the_reference(self, energies, slack):
        # a one-way line whose only path is the whole line
        n = len(energies)
        g = build_graph(range(n + 1), {(k, k + 1): ArcAttr(1.0, e, 1.0)
                                       for k, e in enumerate(energies)})
        path = PathCache(g).path(0, n)
        start = path.energy_kwh + slack
        assert repr(_arrival_level(path, start)) == repr(route_level(g, path, start))


@st.composite
def attach_cases(draw):
    """A charger cycle of 2-6 segments, an EV meeting it, and what each point needs.

    Each segment's arc and induced energies are drawn, zeros included. The
    charger's budget is finite or infinite, or a share of one whole pass's
    induced energy, so a run that crosses the cycle start often needs the
    budget restart; the EV's capacity, its level at the meeting point and
    the energy each cycle point's remaining trip needs (infinite: no way
    on) are drawn too.
    """
    u = draw(st.integers(2, 6))
    unit = MedState(ring(draw(st.lists(DRIVE_S, min_size=u, max_size=u)),
                         draw(st.integers(1, 3))), TEST_INDUCTION)
    unit.segments = tuple(
        replace(seg, energy_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
                induced_kwh=draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0))))
        for seg in unit.segments)
    full_pass = sum(seg.induced_kwh for seg in unit.segments)
    unit.battery_kwh = draw(st.one_of(st.just(math.inf), st.floats(0.0, 30.0),
                                      st.floats(0.4, 1.0).map(full_pass.__mul__)))
    capacity = draw(st.floats(0.5, 20.0))
    eps = draw(st.one_of(st.floats(0.0, capacity), st.sampled_from((0.0, -5e-10, capacity))))
    need = draw(st.lists(st.one_of(st.floats(0.0, 25.0), st.just(math.inf)),
                         min_size=u, max_size=u))
    return unit, draw(st.integers(0, u - 1)), eps, capacity, need


class TestAttachRun:
    @settings(max_examples=300, deadline=None)
    @given(case=attach_cases())
    def test_prefixes_and_stop_match_the_reference(self, case):
        unit, start_idx, eps, capacity, _ = case
        assert repr(list(unit.ride(start_idx, eps, capacity))) == \
            repr(ref_attach_run(unit, start_idx, eps, capacity))

    @settings(max_examples=300, deadline=None)
    @given(case=attach_cases())
    def test_planned_span_matches_the_reference(self, case):
        unit, start_idx, eps, capacity, need = case
        args = (unit, start_idx, eps, capacity, need.__getitem__)
        assert repr(_plan_med_span(*args)) == repr(ref_plan_med_span(*args))

    def test_each_stop_is_where_the_reference_stops(self):
        # one cycle of three 1 kWh / 2 kWh-induced segments, visit limit 2
        unit = MedState(ring([10.0, 20.0, 30.0], 2), TEST_INDUCTION)
        unit.segments = tuple(replace(seg, energy_kwh=1.0, induced_kwh=2.0)
                              for seg in unit.segments)
        # from point 1 the six segments take 2, 4 | 2, 4, 6 | 2 kWh from
        # passes 0, 1 and 2: the budget restarts where each pass begins, and
        # a budget plus tolerance landing exactly on a pass's sum still allows it
        for budget, want in ((math.inf, 6), (6.0 - 1e-9, 6), (6.0 - 2e-9, 4), (5.0, 4),
                             (4.0 - 1e-9, 4), (4.0 - 2e-9, 1)):
            unit.battery_kwh = budget
            run = list(unit.ride(1, 0.0, 100.0))
            assert len(run) == want and repr(run) == repr(ref_attach_run(unit, 1, 0.0, 100.0))
        # a level exactly at minus the tolerance rides on; one below it stops
        unit.battery_kwh = math.inf
        flat = tuple(replace(seg, energy_kwh=0.0, induced_kwh=0.0) for seg in unit.segments)
        unit.segments = flat
        assert len(list(unit.ride(0, -1e-9, 100.0))) == 6
        assert list(unit.ride(0, -2e-9, 100.0)) == []
        # a segment that drains more than it induces empties the battery
        unit.segments = (flat[0], replace(flat[1], energy_kwh=1.0), flat[2])
        assert [seg.index for seg, *_ in unit.ride(0, 0.5, 100.0)] == [0]


# -- the plan checker -------------------------------------------------------------

ODD = (math.nan, math.inf, -math.inf, -0.0, -1.0)


def routed_plans():
    """``(graph, plan, doctor)`` triples: the default runs at 100 EVs and criterion 1's
    scenarios 0-59, a sixth of them to doctor; the oracle's optima and the router's
    plans on random oracle instances; and plans on zero-energy arcs with an integer
    capacity, where a clamp at capacity shows in the levels' types."""
    routed = []
    for scenario in [*(default_scenario(mode=mode, level=level, ev_count=100)
                       for mode in sim.MODES for level in ("L1", "L2", "L3")),
                     *map(random_scenario, range(60))]:
        routed += [(sim._last_network.graph, a) for a in sim.run(scenario).assignments if a]
    plans = [(g, a, n % 6 == 0) for n, (g, a) in enumerate(routed)]
    for seed in range(60):
        inst = random_oracle_instance(seed)
        best = solve_exact(inst).best
        if best is not None:
            plans.append((inst.graph, best, True))
        try:
            plans.append((inst.graph, find_shortest_path(
                inst.graph, inst.request, inst.frozen_infrastructure(),
                caches=PathCache(inst.graph)), True))
        except Stranded:
            pass
    flat = line_graph(4, energy=0.0, scs=(2,))
    plans.append((flat, RouteAssignment("flat", 0, 3, 50, 50, [0, 1, 2, 3], [], [],
                                        [50, 50, 50, 50], 300.0), True))
    plans.append((flat, RouteAssignment("flat", 0, 3, 50, 49, [0, 1, 2, 3],
                                        [ScsVisit(2, 2, 0.0, 5.0, 49.0)], [],
                                        [49, 49.0, 50, 50], 305.0), True))
    return plans


def _with(items, k, **change):
    """``items`` with item ``k`` replaced by a copy holding ``change``."""
    return items[:k] + [replace(items[k], **change)] + items[k + 1:]


def doctored(a):
    """Copies of plan ``a``, each with one field perturbed."""
    Q, legs, trace = a.capacity_kwh, a.legs, a.energy_trace
    for value in (*ODD, 0.0, Q + 1.0, int(Q)):
        yield replace(a, capacity_kwh=value)
    for value in (*ODD, Q + 1.0, Q + 1e-10, -1e-10):
        yield replace(a, energy_start_kwh=value)
    for value in (*ODD, a.total_time_s + 1e-3):
        yield replace(a, total_time_s=value)
    k = len(legs) // 2
    for walk in (legs[::-1], legs[1:], legs[:-1], [], legs[:k] + [legs[k]] + legs[k:],
                 legs[:k] + [-7] + legs[k + 1:]):
        yield replace(a, legs=walk)
    for k in sorted({0, len(trace) // 2, len(trace) - 1}):
        for value in (*ODD, trace[k] + 1e-3, trace[k] + 1e-7):
            yield replace(a, energy_trace=trace[:k] + [value] + trace[k + 1:])
    yield replace(a, energy_trace=trace[:-1])
    for k, v in enumerate(a.z_visits):
        for field, values in (("leg_index", (v.leg_index - 1, v.leg_index + 1, -1, len(legs))),
                              ("node", (v.node + 1,)), ("wait_s", (-1.0, math.nan)),
                              ("charge_s", (-1.0, math.inf)),
                              ("arrive_kwh", (*ODD, v.arrive_kwh + 1e-3))):
            for value in values:
                yield replace(a, z_visits=_with(a.z_visits, k, **{field: value}))
        yield replace(a, z_visits=a.z_visits + [v])  # charged twice there
        yield replace(a, z_visits=_with(a.z_visits, k, leg_index=0, node=legs[0]))
    for k, p in enumerate(a.q_points):
        for field, values in (("leg_index", (p.leg_index - 1, p.leg_index + 1, -1, math.nan)),
                              ("wait_s", (-1.0, math.nan)),
                              ("segments", (p.segments[1:], p.segments[::-1],
                                            p.segments + p.segments[:1],
                                            tuple((j, i) for i, j in p.segments))),
                              ("induced_per_segment", (p.induced_per_segment[1:],))):
            for value in values:
                yield replace(a, q_points=_with(a.q_points, k, **{field: value}))
        for j, induced in enumerate(p.induced_per_segment):
            for value in (*ODD, induced + 1.0, 0.0):
                gains = p.induced_per_segment[:j] + (value,) + p.induced_per_segment[j + 1:]
                yield replace(a, q_points=_with(a.q_points, k, induced_per_segment=gains))


def _outcome(check, g, a, tol):
    try:
        return repr(check(g, a, tol))
    except Exception as exc:  # a plan neither checker can read must fail alike
        return f"{type(exc).__name__}: {exc}"


class TestPlanFindings:
    """``_plan_findings`` against ``ref_plan_findings``: findings and levels by ``repr``."""

    def test_routed_and_doctored_plans_match_the_reference(self):
        plans = routed_plans()
        checked = found = 0
        for g, a, doctor in plans:
            for b in [a, *doctored(a)] if doctor else [a]:
                for tol in ((1e-6, 0.0, -1.0, math.nan) if b is a else (1e-6, 0.0)):
                    want = _outcome(ref_plan_findings, g, b, tol)
                    assert _outcome(_plan_findings, g, b, tol) == want, (a.ev, b, tol)
                    checked += 1
                    found += not want.startswith("([]")
        assert len(plans) > 2500 and checked > 50_000 and found > 20_000
