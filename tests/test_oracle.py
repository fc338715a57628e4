import copy
import hashlib
import math
import weakref

import pytest

from medsim import routing
from medsim.energy import InductionParams
from medsim.oracle import OracleError, OracleInstance, solve_exact, verify
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import EvRequest, Stranded, check_assignment, find_shortest_path
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
    a.y_arcs = [(3, 0)]  # never traversed
    a.q_points[0].segments = ((3, 0),)


def _short_after_station(a):
    # the battery leaves the station short; the later trace stays consistent
    for k in range(a.z_visits[0].leg_index, len(a.energy_trace)):
        a.energy_trace[k] -= 0.5


def _attach_on_the_spur(a):
    # the first run starts one arc early, on the source spur (4, 0): on the
    # walk, with the same gains, so only the arc's kind is wrong
    att = a.q_points[0]
    att.leg_index, att.meet_node = 0, 4
    att.segments = ((4, 0),) + att.segments
    att.induced_per_segment = (0.0,) + att.induced_per_segment
    a.y_arcs = [arc for q in a.q_points for arc in q.segments]


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
        pytest.param(ring_instance, lambda a: setattr(a.q_points[0], "meet_node", 2),
                     "violated(3)", id="meet-node-off-walk"),
        pytest.param(ring_instance, lambda a: setattr(a.q_points[0], "detach_node", 3),
                     "violated(3)", id="detach-node-off-walk"),
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
        assert verify(inst, bad, check_waits=False) == want
        assert check_assignment(inst.graph, bad)

    def test_verify_computes_no_map_after_solve_exact(self, monkeypatch):
        # the instance owns one path cache, so verify reads the maps that
        # solve_exact built, for the oracle's plan and the router's alike
        runs = []
        kernel = routing._dijkstra_dist

        def counting(adj, source):
            runs.append(source)
            return kernel(adj, source)
        monkeypatch.setattr(routing, "_dijkstra_dist", counting)
        checked = 0
        for seed in range(30):
            inst = random_oracle_instance(seed)
            sol = solve_exact(inst)
            plans = [sol.best] if sol.feasible else []
            try:
                plans.append(find_shortest_path(inst.graph, inst.request,
                                                inst.frozen_infrastructure()))
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
                                       inst.frozen_infrastructure())
            except Stranded:
                stranded += 1
                continue
            assert verify(inst, a, check_waits=True) == "ok", f"seed {seed}"
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
                a = find_shortest_path(inst.graph, r, inst.frozen_infrastructure())
            except Stranded:
                with pytest.raises(Stranded):
                    find_shortest_path(twin.graph, twin.request, twin.frozen_infrastructure())
                continue
            b = find_shortest_path(twin.graph, twin.request, twin.frozen_infrastructure())
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
                      repr(q.gain_kwh), repr(q.dispensed_kwh)) for q in a.q_points],
                    [repr(e) for e in a.energy_trace],
                    a.y_arcs,
                ]
            h.update(repr(parts).encode())
        assert h.hexdigest() == self.DIGEST
