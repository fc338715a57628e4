import copy
import hashlib
import math
import weakref

import pytest

from medsim import oracle, routing, sim
from medsim.charging import scs_charge_time
from medsim.energy import InductionParams
from medsim.oracle import OracleError, OracleInstance, solve_exact, verify
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import (EvRequest, MedAttach, PathCache, Stranded, check_assignment,
                            find_shortest_path)
from tests.conftest import (line_graph, objective_time, random_oracle_instance,
                            relabelled_instance, ring_with_spurs, sparse_id)


def line_instance(energy=4.0, wait=60.0):
    g = line_graph()  # arcs 100 s / 1 kWh, station at 3
    req = EvRequest("t", 0, 5, 10.0, energy)
    return OracleInstance(g, req, scs_waits={3: wait}, scs_rates={3: 19.2})


def ring_instance():
    g = ring_with_spurs()  # its plan attaches at 0 for (0, 1), then at 1 for (1, 2)
    req = EvRequest("t", 4, 5, 10.0, 2.0)
    return OracleInstance(g, req, med_waits={p: 0.0 for p in range(4)},
                          induction=InductionParams(0.75, 40.0))


def _dip_below_zero(a):
    a.energy_start_kwh = 2.0  # recomputed trace dips below zero at node 3
    a.energy_trace = [2.0 - k for k in range(4)] + a.energy_trace[4:]
    a.energy_trace[3] = -1.0


def _attach_off_the_walk(a):
    a.q_points[0].segments = ((3, 0),)  # never traversed


def _short_after_station(a):
    # the battery leaves the station short; the later trace stays consistent
    for k in range(a.z_visits[0].leg_index, len(a.energy_trace)):
        a.energy_trace[k] -= 0.5


def _attach_on_the_spur(a):
    # the first run starts one arc early, on the source spur (4, 0): on the
    # walk, with the same gains, so only the arc's kind is wrong
    att = a.q_points[0]
    att.leg_index = 0
    att.segments = ((4, 0),) + att.segments
    att.induced_per_segment = (0.0,) + att.induced_per_segment


def _empty_attach_span(a):
    # a run that rides nothing has no meet or detach node; the check must
    # say so, not crash on it
    att = a.q_points[0]
    att.segments = att.induced_per_segment = att.booking_keys = ()


def _negative_station_wait(a):
    a.z_visits[0].wait_s -= 120.0  # 60 s becomes -60 s, and the total follows
    a.total_time_s -= 120.0


def _negative_attach_wait(a):
    a.q_points[0].wait_s = -30.0
    a.total_time_s -= 30.0


class TestSolveExact:
    def test_direct_route_when_feasible(self):
        inst = line_instance(energy=6.0)
        sol = solve_exact(inst)
        assert sol.feasible
        assert sol.objective_s == pytest.approx(500.0)
        assert not sol.best.z_visits

    def test_line_with_forced_stop_hand_value(self):
        # drive 500 s, wait 60 s, charge (10-1)/19.2 h = 1687.5 s
        sol = solve_exact(line_instance(energy=4.0))
        assert sol.objective_s == pytest.approx(2247.5)
        assert [v.node for v in sol.best.z_visits] == [3]
        assert verify(line_instance(energy=4.0), sol.best) == "ok"

    def test_empty_battery_no_adjacent_charger_infeasible(self):
        inst = line_instance(energy=0.0)
        sol = solve_exact(inst)
        assert not sol.feasible
        assert sol.best is None
        assert sol.objective_s == math.inf

    def test_skipping_a_passed_station_when_cheaper(self):
        # charging is never free (wait 500 s), so a battery that covers the
        # trip drives straight past the station
        inst = line_instance(energy=9.0, wait=500.0)
        sol = solve_exact(inst)
        assert sol.objective_s == pytest.approx(500.0)
        assert not sol.best.z_visits

    def test_med_ring_optimum(self):
        g = ring_with_spurs()
        req = EvRequest("t", 4, 5, 10.0, 2.0)
        inst = OracleInstance(g, req, med_waits={0: 120.0, 1: 50.0, 2: 10.0, 3: 30.0},
                              induction=InductionParams(0.75, 40.0))
        sol = solve_exact(inst)
        # ride one cheap segment from point 1: 600 s of driving + 50 s wait
        assert sol.objective_s == pytest.approx(650.0)
        assert sol.best.y_arcs == [(1, 2)]
        assert verify(inst, sol.best) == "ok"

    def test_node_bound_enforced(self):
        arcs = {(k, k + 1): ArcAttr(10.0, 0.1, 10.0) for k in range(15)}
        g = build_graph(range(16), arcs)
        inst = OracleInstance(g, EvRequest("t", 0, 15, 5.0, 5.0))
        with pytest.raises(OracleError):
            solve_exact(inst)

    def test_node_bound_counts_each_charger_visit_limit_times(self):
        # 12 nodes with two stations count as 14 at visit_limit 2, 16 at 3
        arcs = {(k, k + 1): ArcAttr(10.0, 0.1, 10.0) for k in range(11)}
        req = EvRequest("t", 0, 11, 5.0, 5.0)
        fits = build_graph(range(12), arcs, scs_list=[3, 7], visit_limit=2)
        assert solve_exact(OracleInstance(fits, req)).feasible
        over = build_graph(range(12), arcs, scs_list=[3, 7], visit_limit=3)
        with pytest.raises(OracleError):
            solve_exact(OracleInstance(over, req))

    def test_endpoint_outside_the_graph_rejected(self):
        with pytest.raises(OracleError):
            OracleInstance(line_graph(), EvRequest("t", 0, 9, 10.0, 4.0))

    def test_deterministic_explored_count(self):
        a = solve_exact(line_instance())
        b = solve_exact(line_instance())
        assert a.explored == b.explored
        assert a.objective_s == b.objective_s

    def test_search_budget_counts_every_explored_state(self):
        inst = line_instance(energy=4.0)
        sol = solve_exact(inst)
        assert sol.explored > 1
        assert solve_exact(inst, search_budget=sol.explored).explored == sol.explored
        with pytest.raises(OracleError, match="search budget exceeded"):
            solve_exact(inst, search_budget=sol.explored - 1)

    def test_objective_matches_recomputed_formula(self):
        sol = solve_exact(line_instance())
        inst = line_instance()
        assert sol.objective_s == pytest.approx(
            objective_time(inst.graph, sol.best), abs=1e-9)

    @pytest.mark.parametrize("visit_limit,charges,explored", [(1, 1, 3), (2, 3, 14)])
    def test_station_visit_budget_bounds_the_search(self, monkeypatch, visit_limit, charges,
                                                    explored):
        # a full 3.5 kWh battery at the station (node 1) cannot drive the
        # 4 kWh on to node 5, so the search wanders back to the station. A
        # walk charges there at most visit_limit times: once on arrival at
        # visit_limit 1, and twice more, back from 0 and from 2, at 2. A
        # spent budget also leaves the bound no charger to reach, which
        # prunes the walk. A second full charge at one station never beats
        # skipping the loop between the two visits, so the budget changes
        # the search, not the optimum.
        calls = []
        charge_time = oracle.scs_charge_time
        monkeypatch.setattr(oracle, "scs_charge_time",
                            lambda *args: calls.append(args) or charge_time(*args))
        inst = OracleInstance(line_graph(scs=(1,), visit_limit=visit_limit),
                              EvRequest("t", 0, 5, 3.5, 1.5), scs_waits={1: 60.0},
                              scs_rates={1: 19.2})
        sol = solve_exact(inst)
        assert not sol.feasible
        assert (len(calls), sol.explored) == (charges, explored)


@pytest.mark.parametrize("build,budget,feasible", [
    pytest.param(ring_instance, 2_000_000, True, id="feasible"),
    pytest.param(lambda: line_instance(energy=0.0), 2_000_000, False, id="infeasible"),
    pytest.param(line_instance, 3, None, id="budget-overrun"),
])
def test_a_solve_leaves_nothing_for_the_cyclic_collector(build, budget, feasible, gc_off):
    # only reference counting frees the solve: a cycle through the search
    # would keep the instance's graph alive
    inst = build()
    graph = weakref.ref(inst.graph)
    try:
        outcome = solve_exact(inst, search_budget=budget).feasible
    except OracleError:
        outcome = None
    assert outcome == feasible
    del inst
    assert graph() is None


class TestVerify:
    def test_oracle_best_is_ok(self):
        inst = line_instance()
        assert verify(inst, solve_exact(inst).best) == "ok"

    @pytest.mark.parametrize("build,corrupt,want", [
        pytest.param(line_instance, _dip_below_zero, "violated(5)", id="negative-dip"),
        pytest.param(ring_instance, _attach_off_the_walk, "violated(3)", id="attach-off-walk"),
        pytest.param(line_instance, _short_after_station, "violated(7)",
                     id="short-after-station"),
        pytest.param(lambda: line_instance(energy=6.0), lambda a: a.legs.pop(), "violated(2)",
                     id="flow-break"),
        pytest.param(ring_instance, _empty_attach_span, "violated(3)", id="empty-attach-span"),
        pytest.param(ring_instance, _attach_on_the_spur, "violated(3)", id="attach-not-cycle-arc"),
        pytest.param(ring_instance, lambda a: setattr(a.q_points[1], "leg_index", 9),
                     "violated(3)", id="attach-index-past-walk"),
        pytest.param(line_instance, lambda a: a.legs.__setitem__(2, 4), "violated(2)",
                     id="walk-over-missing-arc"),
        pytest.param(line_instance, lambda a: setattr(a.z_visits[0], "leg_index", 2),
                     "violated(10)", id="visit-off-walk"),
        pytest.param(line_instance, _negative_station_wait, "violated(4)",
                     id="negative-station-wait"),
        pytest.param(ring_instance, _negative_attach_wait, "violated(4)",
                     id="negative-attach-wait"),
        pytest.param(line_instance, lambda a: a.energy_trace.pop(), "violated(4)",
                     id="trace-too-short"),
    ])
    def test_corrupted_plan(self, build, corrupt, want):
        # both checkers run the one plan walk: verify names the first broken
        # constraint, and the router's self-check reports the same fault
        inst = build()
        bad = copy.deepcopy(solve_exact(inst).best)
        corrupt(bad)
        assert verify(inst, bad) == want
        assert check_assignment(inst.graph, bad)

    @pytest.mark.parametrize("laps,want", [(2, "ok"), (3, "violated(11)")])
    def test_attach_budget_per_cycle_point(self, laps, want):
        # from 4 to 5, attaching at cycle point 0 for (0, 1) on every lap:
        # visit_limit 2 allows two attaches at a point, and each cycle arc
        # four traversals, so a third lap breaks (11) alone
        inst = ring_instance()
        med = inst.frozen_infrastructure().med_units[0]
        seg = med.segments[0]
        legs = [4] + [0, 1, 2, 3] * (laps - 1) + [0, 1, 2, 5]
        q_points = [MedAttach.build(med, 0, lap, 1, 1 + 4 * lap, 0.0, seg.drive_s)
                    for lap in range(laps)]
        eps, drive, trace = 9.0, 0.0, [9.0]
        for k, (i, j) in enumerate(zip(legs, legs[1:])):
            arc = inst.graph.arc(i, j)
            gain = seg.induced_kwh if k % 4 == 1 and k < 4 * laps else 0.0
            eps = min(10.0, eps - arc.energy_kwh + gain)
            drive += arc.drive_time_s
            trace.append(eps)
        plan = routing.RouteAssignment("t", 4, 5, 10.0, 9.0, legs, [], q_points, trace, drive)
        assert verify(inst, plan) == want

    def test_verify_computes_no_map_after_solve_exact(self, monkeypatch):
        # the instance owns one path cache, so verify reads the maps that
        # solve_exact built, for the oracle's plan and the router's alike
        runs = []
        kernel = routing._dijkstra_dist

        def counting(g, source, weight, reverse):
            runs.append(source)
            return kernel(g, source, weight, reverse)
        monkeypatch.setattr(routing, "_dijkstra_dist", counting)
        checked = 0
        for seed in range(30):
            inst = random_oracle_instance(seed)
            sol = solve_exact(inst)
            plans = [sol.best] if sol.feasible else []
            try:
                plans.append(find_shortest_path(inst.graph, inst.request,
                                                inst.frozen_infrastructure(),
                                                caches=PathCache(inst.graph)))
            except Stranded:
                pass
            for a in plans:
                before = len(runs)
                assert verify(inst, a) == "ok", f"seed {seed}"
                assert len(runs) == before, f"seed {seed}"
                checked += 1
        assert checked > 0


class TestAgainstRouter:
    def test_router_never_beats_oracle_on_random_instances(self):
        agree, stranded = 0, 0
        for seed in range(40):
            inst = random_oracle_instance(seed)
            sol = solve_exact(inst)
            try:
                a = find_shortest_path(inst.graph, inst.request,
                                       inst.frozen_infrastructure(), caches=PathCache(inst.graph))
            except Stranded:
                stranded += 1
                continue
            assert verify(inst, a) == "ok", f"seed {seed}"
            assert sol.feasible, f"seed {seed}: router found a plan the oracle missed"
            assert a.total_time_s >= sol.objective_s - 1e-9, f"seed {seed}"
            if abs(a.total_time_s - sol.objective_s) <= 1e-9:
                agree += 1
        assert agree > 0  # the heuristic matches the optimum somewhere

    def test_verify_accepts_oracle_best_on_random_instances(self):
        for seed in range(40, 80):
            inst = random_oracle_instance(seed)
            sol = solve_exact(inst)
            if sol.feasible:
                assert verify(inst, sol.best) == "ok", f"seed {seed}"

    def test_sparse_ids_solve_route_and_verify_like_their_dense_twin(self):
        # node ids that are never positions change no search, bound or check
        for seed in range(40):
            inst = random_oracle_instance(seed)
            r = inst.request
            twin = relabelled_instance(inst)
            want, got = solve_exact(inst), solve_exact(twin)
            assert (got.objective_s, got.explored) == (want.objective_s, want.explored)
            if want.feasible:
                assert got.best.legs == [sparse_id(n) for n in want.best.legs]
                assert verify(twin, got.best) == "ok"
            try:
                a = find_shortest_path(inst.graph, r, inst.frozen_infrastructure(),
                                       caches=PathCache(inst.graph))
            except Stranded:
                with pytest.raises(Stranded):
                    find_shortest_path(twin.graph, twin.request, twin.frozen_infrastructure(),
                                       caches=PathCache(twin.graph))
                continue
            b = find_shortest_path(twin.graph, twin.request, twin.frozen_infrastructure(),
                                   caches=PathCache(twin.graph))
            assert b.legs == [sparse_id(n) for n in a.legs]
            assert b.total_time_s == a.total_time_s
            assert verify(twin, b) == "ok", f"seed {seed}"

    def test_reversed_ids_solve_to_the_same_optimum(self):
        # reversing the ids flips every tie between arcs of equal bound, so
        # the twin may search in another order and return another optimal
        # plan, but never another objective
        for seed in range(300):
            inst = random_oracle_instance(seed)
            top = max(inst.graph.nodes)
            twin = relabelled_instance(inst, lambda n: top - n)
            want, got = solve_exact(inst), solve_exact(twin)
            assert got.feasible == want.feasible, f"seed {seed}"
            if want.feasible:
                assert got.objective_s == pytest.approx(want.objective_s, rel=1e-12), \
                    f"seed {seed}"
                assert verify(inst, want.best) == "ok", f"seed {seed}"
                assert verify(twin, got.best) == "ok", f"seed {seed}"


def budget_bound_ring():
    """A one-way ring whose 60 kWh charger budget cuts attach runs short.

    The segments (0,1), (1,2), (2,3) and (3,0) induce 10, 20, 35 and 25 kWh
    and each cost 1 kWh. The EV comes in on (4, 0) with 3 kWh and leaves on
    (3, 5), which costs 40. From point 0 the budget ends a run at point 2,
    short of what the trip needs; from point 1 it allows (1, 2), (2, 3) and
    no more, and only point 1 has no wait, so that run is the optimum.
    """
    arcs = {(4, 0): ArcAttr(100.0, 1.0, 1000.0), (3, 5): ArcAttr(100.0, 40.0, 1000.0)}
    for (i, j), drive in zip(((0, 1), (1, 2), (2, 3), (3, 0)), (100.0, 200.0, 350.0, 250.0)):
        arcs[(i, j)] = ArcAttr(drive, 1.0, 1000.0)
    g = build_graph(range(6), arcs, med_cycle=[0, 1, 2, 3])
    return OracleInstance(g, EvRequest("b", 4, 5, 100.0, 3.0),
                          med_waits={0: 50.0, 1: 0.0, 2: 50.0, 3: 50.0},
                          induction=InductionParams(1.0, 360.0), med_battery_kwh=60.0)


def _left_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestOneAttachRecord:
    """The router and the oracle ride the charger by one rule, ``MedState.ride``."""

    def test_router_and_oracle_stop_where_the_budget_binds(self):
        inst = budget_bound_ring()
        routed = find_shortest_path(inst.graph, inst.request, inst.frozen_infrastructure(),
                                    caches=inst.caches)
        best = solve_exact(inst).best
        assert [q.segments for q in routed.q_points] == [q.segments for q in best.q_points] \
            == [((1, 2), (2, 3))]
        assert verify(inst, routed) == verify(inst, best) == "ok"
        med = inst.frozen_infrastructure().med_units[0]
        assert [seg.index for seg, *_ in med.ride(0, 2.0, 100.0)] == [0, 1]
        assert [seg.index for seg, *_ in med.ride(1, 1.0, 100.0)] == [1, 2]
        med.battery_kwh = math.inf  # without the budget both runs would go on
        assert len(list(med.ride(0, 2.0, 100.0))) == len(list(med.ride(1, 1.0, 100.0))) == 8


def ring_across_the_cycle_start():
    """``budget_bound_ring``'s cycle, where only a run across the cycle start reaches the exit.

    The EV comes in on (4, 2) with 3 kWh and leaves on (1, 5), which costs
    60. From point 2 the run takes 35 and 25 kWh from pass 0 and 10 from
    pass 1, reaching point 1 with 69 kWh; one 60 kWh budget for the whole
    run would end it at point 0. Points 3 and 0, the only others the EV
    can reach, cannot gather 60 kWh by point 1.
    """
    arcs = {(4, 2): ArcAttr(100.0, 1.0, 1000.0), (1, 5): ArcAttr(100.0, 60.0, 1000.0)}
    for (i, j), drive in zip(((0, 1), (1, 2), (2, 3), (3, 0)), (100.0, 200.0, 350.0, 250.0)):
        arcs[(i, j)] = ArcAttr(drive, 1.0, 1000.0)
    g = build_graph(range(6), arcs, med_cycle=[0, 1, 2, 3])
    return OracleInstance(g, EvRequest("c", 4, 5, 100.0, 3.0),
                          induction=InductionParams(1.0, 360.0), med_battery_kwh=60.0)


class TestPassBudgetAcrossTheCycleStart:
    def test_router_and_oracle_restart_the_budget(self):
        inst = ring_across_the_cycle_start()
        routed = find_shortest_path(inst.graph, inst.request, inst.frozen_infrastructure(),
                                    caches=inst.caches)
        best = solve_exact(inst).best
        assert [q.booking_keys for q in routed.q_points] == [((2, 0), (3, 0), (0, 1))]
        assert verify(inst, routed) == verify(inst, best) == "ok"
        assert routed.total_time_s == best.total_time_s
        med = inst.frozen_infrastructure().med_units[0]
        # 35 + 25 kWh fill pass 0; pass 1 gives 10 + 20 and stops at 35 more
        assert [seg.index for seg, *_ in med.ride(2, 2.0, 100.0)] == [2, 3, 0, 1]


class TestOneStationLevel:
    """A router station stop is priced and recorded from the level its walk holds there."""

    def test_router_charge_is_priced_from_the_walk_level(self):
        visits = 0
        for mode in sim.MODES:
            for level in ("L1", "L2", "L3"):
                for seed in range(5):
                    scenario = sim.default_scenario(mode=mode, level=level, ev_count=100,
                                                    seed=seed)
                    metrics = sim.run(scenario)
                    g = sim.network_for(scenario).graph
                    rates = {u.node: u.rate_kw for u in metrics.infrastructure.scs_units}
                    for a in filter(None, metrics.assignments):
                        for v in a.z_visits:
                            k = v.leg_index
                            assert k > 0
                            walk = a.energy_trace[k - 1] - g.arc(a.legs[k - 1],
                                                                 a.legs[k]).energy_kwh
                            assert repr(v.arrive_kwh) == repr(walk)
                            assert repr(v.charge_s) == repr(
                                scs_charge_time(v.arrive_kwh, a.capacity_kwh, rates[v.node]))
                            visits += 1
        assert visits > 100


class TestPinnedSolverOutputs:
    """The exact search's objectives, plans and state counts, pinned bit for bit.

    ``OBJECTIVE_DIGEST`` covers each instance's feasibility and objective,
    floats by ``repr``: no change to the search that keeps it exact moves it.
    ``DIGEST`` covers every field of the returned plan and the explored
    count too, over instances that include station visits and attach runs.
    A change to the search that keeps its walk order (the decision order at
    a node and the order its arcs are tried in), pruning and bounds leaves
    it unchanged; another walk order moves the counts and, among optima of
    equal objective, may return another plan.
    """

    OBJECTIVE_DIGEST = "2304eba11284019140548bd7e3558d8d7c64903af99133dc36bd10698e24ebba"
    DIGEST = "4395ed3a2c9595dbfb9b783fd65cbc5e38cacc43888198b65b23e22cce9d856f"

    def test_random_instances_objective_digest(self):
        h = hashlib.sha256()
        for seed in range(300):
            sol = solve_exact(random_oracle_instance(seed))
            h.update(repr([seed, sol.feasible, repr(sol.objective_s)]).encode())
        assert h.hexdigest() == self.OBJECTIVE_DIGEST

    def test_random_instances_digest(self):
        h = hashlib.sha256()
        for seed in range(300):
            sol = solve_exact(random_oracle_instance(seed))
            parts = [seed, sol.feasible, repr(sol.objective_s), sol.explored]
            if sol.feasible:
                a = sol.best
                parts += [
                    a.legs,
                    [(v.node, v.leg_index, repr(v.wait_s), repr(v.charge_s), repr(v.arrive_kwh))
                     for v in a.z_visits],
                    [(q.meet_node, q.detach_node, q.leg_index, repr(q.wait_s), repr(q.attach_s),
                      q.segments, [repr(e) for e in q.induced_per_segment], q.booking_keys,
                      repr(a.energy_trace[q.leg_index + len(q.segments)]
                           - a.energy_trace[q.leg_index]),
                      repr(_left_fold(q.induced_per_segment))) for q in a.q_points],
                    [repr(e) for e in a.energy_trace],
                    a.y_arcs,
                ]
            h.update(repr(parts).encode())
        assert h.hexdigest() == self.DIGEST
