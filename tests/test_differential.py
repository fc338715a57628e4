"""Differential tests: the router's scoring against plain reference copies.

``MedState.waiting``, ``find_best_energy_point`` and ``_arrival_level``
compute what their references in ``conftest.py`` compute (``ref_waiting``,
``ref_best_energy_point`` and the per-arc ``route_level``), with less
work per try, point and arc; ``attach_run`` and ``_plan_med_span`` ride the
charger as ``ref_attach_run`` and ``ref_plan_med_span`` do. Each property
draws inputs on which the two could part and demands the same answer bit
for bit (McKeeman 1998, "Differential testing for software").
"""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from medsim.charging import Booking, Infrastructure, MedState, ScsState
from medsim.energy import InductionParams
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import (EvRequest, PathCache, Stranded, _arrival_level, _plan_med_span,
                            attach_run, find_best_energy_point)
from medsim.sim import _refuse_all, _refuse_med
from tests.conftest import (TEST_INDUCTION, ref_attach_run, ref_best_energy_point,
                            ref_plan_med_span, ref_waiting, route_level)

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
    full_pass = sum(MedState(g, TEST_INDUCTION)._pass_shares((k, 0) for k in range(u))
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
    ledgers on both, and one EV asking where to charge.

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

    infra = Infrastructure()
    scs = ScsState(station, draw(st.sampled_from((19.2, 50.0))))
    booked_until = draw(st.sampled_from((0.0, 5.0, 30.0, 300.0)))
    if booked_until:
        scs.bookings.append(Booking("other", 0.0, booked_until))
    infra.scs_units.append(scs)
    if draw(st.booleans()):
        # a twin station scores the same; the first one scored must win
        infra.scs_units.append(ScsState(station, scs.rate_kw))
        infra.scs_units[-1].bookings.extend(scs.bookings)
    med = MedState(g, InductionParams(0.75, draw(st.sampled_from((400.0, 4000.0, 20000.0)))),
                   battery_kwh=draw(st.sampled_from((200.0, 1.0, 5.0))),
                   start_s=draw(st.sampled_from((0.0, 3.0, 50.0))))
    u = len(med.segments)
    for key in draw(st.lists(st.tuples(st.integers(0, u - 1), st.integers(-2, 6)),
                             max_size=12)):
        med.segment_bookings[key] = "other"
    infra.med_units.append(med)

    source, dest = draw(st.permutations(nodes))[:2]
    capacity = draw(st.sampled_from((2.0, 5.0, 10.0)))
    energy = draw(st.floats(0.0, capacity))
    request = EvRequest("ev", source, dest, capacity, energy)
    now = draw(st.sampled_from((0.0, 2.0, 40.0, 1000.0)))
    gate = draw(st.sampled_from((None, None, None, _refuse_med, _refuse_all,
                                 lambda kind, node: node % 2 == 0)))
    return g, request, infra, now, gate


class TestChosenCandidate:
    @settings(max_examples=200, deadline=None)
    @given(case=scoring_cases())
    def test_matches_the_reference(self, case):
        g, request, infra, now, gate = case
        caches = PathCache(g)
        args = (g, caches, request, request.source, request.energy_kwh, now, infra, gate)
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
        assert repr(list(attach_run(unit, start_idx, eps, capacity))) == \
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
            run = list(attach_run(unit, 1, 0.0, 100.0))
            assert len(run) == want and repr(run) == repr(ref_attach_run(unit, 1, 0.0, 100.0))
        # a level exactly at minus the tolerance rides on; one below it stops
        unit.battery_kwh = math.inf
        flat = tuple(replace(seg, energy_kwh=0.0, induced_kwh=0.0) for seg in unit.segments)
        unit.segments = flat
        assert len(list(attach_run(unit, 0, -1e-9, 100.0))) == 6
        assert list(attach_run(unit, 0, -2e-9, 100.0)) == []
        # a segment that drains more than it induces empties the battery
        unit.segments = (flat[0], replace(flat[1], energy_kwh=1.0), flat[2])
        assert [seg.index for seg, *_ in attach_run(unit, 0, 0.5, 100.0)] == [0]
