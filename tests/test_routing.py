import dataclasses
import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medsim.charging import Infrastructure, MedState, ScsState
from medsim import routing, sim
from medsim.energy import InductionParams
from medsim.oracle import FrozenMed, FrozenScs
from medsim.road_graph import ArcAttr, build_graph, grid_doc, load_graph
from medsim.routing import (EvRequest, NoPath, Stranded, check_assignment,
                            find_best_energy_point, find_shortest_path, PathCache,
                            _arrival_level, _drive)
from tests.conftest import (TEST_VEHICLE, dijkstra, line_graph, objective_time,
                            ref_dijkstra_dist, relabelled, ring_with_spurs, route_energy,
                            route_feasible, route_level, route_time, sparse_id)


class TestDijkstra:
    def test_identity(self):
        g = line_graph()
        path, cost = dijkstra(g, 2, 2)
        assert cost == 0.0
        assert list(zip(path, path[1:])) == []  # no arcs traversed

    def test_triangle_prefers_two_hops(self):
        arcs = {
            (0, 1): ArcAttr(5.0, 0.1, 10.0),
            (1, 2): ArcAttr(5.0, 0.1, 10.0),
            (0, 2): ArcAttr(12.0, 0.1, 10.0),
        }
        g = build_graph([0, 1, 2], arcs)
        path, cost = dijkstra(g, 0, 2)
        assert path == [0, 1, 2]
        assert cost == 10.0

    def test_unreachable(self):
        arcs = {(0, 1): ArcAttr(1.0, 0.1, 1.0)}
        g = build_graph([0, 1, 2], arcs)
        with pytest.raises(NoPath):
            dijkstra(g, 0, 2)

    def test_lexicographic_tie_break(self):
        # two equal-cost routes 0-1-3 and 0-2-3: the smaller node sequence wins
        arcs = {
            (0, 1): ArcAttr(5.0, 0.1, 10.0), (1, 3): ArcAttr(5.0, 0.1, 10.0),
            (0, 2): ArcAttr(5.0, 0.1, 10.0), (2, 3): ArcAttr(5.0, 0.1, 10.0),
        }
        g = build_graph([0, 1, 2, 3], arcs)
        path, _ = dijkstra(g, 0, 3)
        assert path == [0, 1, 3]

    def test_energy_weight(self):
        arcs = {
            (0, 1): ArcAttr(5.0, 3.0, 10.0), (1, 2): ArcAttr(5.0, 3.0, 10.0),
            (0, 2): ArcAttr(50.0, 1.0, 10.0),
        }
        g = build_graph([0, 1, 2], arcs)
        path, cost = dijkstra(g, 0, 2, weight="energy")
        assert path == [0, 2]
        assert cost == 1.0

    def test_zero_energy_detour_backs_up(self):
        # 0->1 is tight (0 + 2 == 2) but 1 only leads back to 0; the walk
        # must back up and take 0->2->3 instead of giving up
        arcs = {
            (0, 1): ArcAttr(1.0, 0.0, 10.0), (1, 0): ArcAttr(1.0, 0.0, 10.0),
            (0, 2): ArcAttr(1.0, 1.0, 10.0), (2, 3): ArcAttr(1.0, 1.0, 10.0),
        }
        g = build_graph(range(4), arcs)
        assert dijkstra(g, 0, 3, weight="energy") == ([0, 2, 3], 2.0)

    def test_only_exactly_tight_arcs_are_followed(self):
        # 0->1->2 costs 1.000000001 kWh, a hair over the direct 1.0; a tie
        # tolerance once took the smaller-id detour and returned the dearer path
        arcs = {
            (0, 1): ArcAttr(1.0, 0.5, 10.0), (1, 2): ArcAttr(1.0, 0.500000001, 10.0),
            (0, 2): ArcAttr(1.0, 1.0, 10.0),
        }
        path = PathCache(build_graph(range(3), arcs)).path(0, 2, "energy")
        assert list(path) == [0, 2] and path.energy_kwh == 1.0


def test_dijkstra_matches_exhaustive_enumeration():
    # brute force: enumerate every simple path on small random digraphs and
    # compare both the cost and the lexicographic tie-break
    import itertools
    import random

    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        arcs = {}
        for i, j in itertools.permutations(range(n), 2):
            if rng.random() < 0.45:
                arcs[(i, j)] = ArcAttr(float(rng.randint(1, 9)), 0.1, 10.0)
        g = build_graph(range(n), arcs)

        def all_paths(s, t):
            stack = [(s, [s])]
            while stack:
                node, path = stack.pop()
                if node == t:
                    yield path
                    continue
                for tail, nbr in g.arcs:
                    if tail == node and nbr not in path:
                        stack.append((nbr, path + [nbr]))

        s, t = rng.sample(range(n), 2)
        best = None
        for path in all_paths(s, t):
            cost = sum(g.arc(i, j).drive_time_s for i, j in zip(path, path[1:]))
            if best is None or (cost, path) < best:
                best = (cost, path)
        if best is None:
            with pytest.raises(NoPath):
                dijkstra(g, s, t)
        else:
            path, cost = dijkstra(g, s, t)
            assert cost == pytest.approx(best[0], abs=1e-9), f"seed {seed}"
            assert path == best[1], f"seed {seed}: {path} vs {best[1]}"


class TestRouteFeasible:
    def g(self):
        arcs = {(0, 1): ArcAttr(10.0, 2.5, 10.0), (1, 2): ArcAttr(10.0, 0.5, 10.0)}
        return build_graph([0, 1, 2], arcs)

    def test_enough_energy(self):
        assert route_feasible(self.g(), [0, 1, 2], 5.0)

    def test_not_enough_energy(self):
        assert not route_feasible(self.g(), [0, 1, 2], 2.0)


def scs_vs_med_instance():
    """Source 0, station 1, cycle [2, 3], destination 4; equal drives."""
    arcs = {
        (0, 1): ArcAttr(100.0, 1.0, 1000.0),
        (0, 2): ArcAttr(100.0, 1.0, 1000.0),
        (1, 4): ArcAttr(100.0, 1.0, 1000.0),
        (2, 4): ArcAttr(100.0, 1.0, 1000.0),
        (3, 4): ArcAttr(100.0, 1.0, 1000.0),
        (2, 3): ArcAttr(400.0, 0.2, 4000.0),
        (3, 2): ArcAttr(400.0, 0.2, 4000.0),
    }
    return build_graph(range(5), arcs, scs_list=[1], med_cycle=[2, 3])


class TestFindBestEnergyPoint:
    def test_unreachable_station_discarded(self):
        g = line_graph(6, dt=100.0, energy=1.0, scs=(1, 5))
        infra = Infrastructure(scs_units=[ScsState(1, 19.2), ScsState(5, 19.2)])
        req = EvRequest("e", 2, 4, 10.0, 1.5)
        # 1.5 kWh reaches node 1 (1 arc) but not node 5 (3 arcs): brute force
        # over both candidates leaves only the near one
        plan = find_best_energy_point(g, PathCache(g), req, 2, 1.5, 0.0, infra)
        assert plan.kind == "scs" and plan.point == 1

    def test_idle_station_beats_waiting_out_a_cycle(self):
        g = scs_vs_med_instance()
        infra = Infrastructure(
            scs_units=[ScsState(1, 19.2)],
            med_units=[MedState(g, InductionParams(0.75, 40.0))])
        req = EvRequest("e", 0, 4, 3.0, 1.2)
        plan = find_best_energy_point(g, PathCache(g), req, 0, 1.2, 0.0, infra)
        # hand-scored: station 100 + 0 + 525 + 100 = 725
        # mobile:      100 + 700 + 400 + 100 = 1300
        assert plan.kind == "scs" and plan.point == 1
        assert plan.wait_s == 0.0
        assert plan.charge_s == pytest.approx((3.0 - 0.2) / 19.2 * 3600.0)

    def test_no_candidates_is_stranded(self):
        # the chargers of an EV the comms drop excluded: none
        g = line_graph()
        req = EvRequest("e", 0, 5, 10.0, 2.0)
        with pytest.raises(Stranded):
            find_best_energy_point(g, PathCache(g), req, 0, 2.0, 0.0, Infrastructure())


class TestFindShortestPath:
    def test_full_battery_collapses_to_dijkstra(self):
        g = line_graph()
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 50.0, 50.0)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert a.legs == [0, 1, 2, 3, 4, 5]
        assert not a.z_visits and not a.q_points
        assert a.total_time_s == pytest.approx(500.0)
        assert check_assignment(g, a) == []

    def test_single_station_stop_on_line(self):
        g = line_graph()  # station at 3, arcs 100 s / 1 kWh
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 4.0)  # needs 5 kWh
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert [v.node for v in a.z_visits] == [3]
        assert a.energy_trace[a.z_visits[0].leg_index] == 10.0  # full after the stop
        # 500 s drive + 0 wait + (10-1)/19.2 h charge
        assert a.total_time_s == pytest.approx(500.0 + 9.0 / 19.2 * 3600.0)
        assert check_assignment(g, a) == []

    def test_med_attach_over_two_segments(self):
        g = ring_with_spurs()
        infra = Infrastructure(med_units=[MedState(g, InductionParams(0.75, 40.0))])
        req = EvRequest("e", 4, 5, 10.0, 0.9)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert a.y_arcs == [(0, 1), (1, 2)]
        assert [(p.meet_node, p.detach_node) for p in a.q_points] == [(0, 2)]
        # 600 s of driving plus the 700 s wait for the charger to come around
        assert a.q_points[0].wait_s == pytest.approx(700.0)
        assert a.total_time_s == pytest.approx(1300.0)
        assert check_assignment(g, a) == []

    def test_weak_induction_wraps_into_second_pass(self):
        g = ring_with_spurs()
        # 0.75 kWh in vs 0.5 kWh out per segment: covering the trip takes five
        # segments, so the booked span wraps the cycle start into the next pass
        infra = Infrastructure(med_units=[MedState(g, InductionParams(0.75, 18.0))])
        req = EvRequest("e", 4, 5, 10.0, 0.9)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        att = a.q_points[0]
        assert len(att.segments) == 5
        assert len({p for _, p in att.booking_keys}) == 2
        assert check_assignment(g, a) == []

    def test_station_behind_source_revisits_legally(self):
        g = line_graph(6, dt=100.0, energy=1.0, scs=(0,))
        infra = Infrastructure(scs_units=[ScsState(0, 19.2)])
        req = EvRequest("e", 1, 5, 10.0, 1.5)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert a.legs == [1, 0, 1, 2, 3, 4, 5]
        assert check_assignment(g, a) == []

    def test_objective_identity(self):
        g = line_graph()
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 4.0)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert a.total_time_s == objective_time(g, a)

    def test_unreachable_destination_is_stranded(self):
        arcs = {(0, 1): ArcAttr(10.0, 0.1, 10.0)}
        g = build_graph([0, 1, 2], arcs)
        with pytest.raises(Stranded):
            find_shortest_path(g, EvRequest("e", 0, 2, 5.0, 5.0), Infrastructure(),
                               caches=PathCache(g))

    def test_out_of_reach_everywhere_is_stranded(self):
        g = line_graph()  # station at 3
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 0.5)  # cannot even reach node 1
        with pytest.raises(Stranded):
            find_shortest_path(g, req, infra, caches=PathCache(g))

    @staticmethod
    def station_line(n):
        # 1 kWh per arc and room for 1.5: each stop reaches only the next
        # station, so 0 -> n-1 stops at every one of 1 .. n-2
        g = line_graph(n, energy=1.0, scs=range(1, n - 1))
        infra = Infrastructure(scs_units=[ScsState(node, 19.2) for node in range(1, n - 1)])
        return g, infra, EvRequest("e", 0, n - 1, 1.5, 1.0)

    def test_a_route_may_take_leg_limit_stops(self):
        g, infra, req = self.station_line(6)
        a = find_shortest_path(g, req, infra, caches=PathCache(g))
        assert [v.node for v in a.z_visits] == [1, 2, 3, 4]
        assert check_assignment(g, a) == []

    def test_a_route_needing_one_stop_more_strands(self):
        g, infra, req = self.station_line(7)
        assert routing.LEG_LIMIT == 4
        with pytest.raises(Stranded, match="still infeasible after 4 charging stops"):
            find_shortest_path(g, req, infra, caches=PathCache(g))

    def test_rejected_booking_raises_not_stranded(self):
        # a ledger failing to grant a slot the router priced is a fault, not
        # a stranded EV, and the router does not retry it
        calls = []

        class FailingScs(FrozenScs):
            def book(self, ev, arrival_s, charge_s):
                calls.append(ev)
                raise ValueError("slot taken")

        g = line_graph()
        infra = Infrastructure(scs_units=[FailingScs(3, 19.2, 0.0)])
        with pytest.raises(ValueError, match="slot taken") as caught:
            find_shortest_path(g, EvRequest("e", 0, 5, 10.0, 4.0), infra, caches=PathCache(g))
        assert not isinstance(caught.value, Stranded)
        assert calls == ["e"]


class TestMedPassBudget:
    """An attach run may ride ``visit_limit`` passes of the cycle, and no more
    than the charger's battery can dispense."""

    def route(self, visit_limit=2, battery_kwh=200.0):
        # 0.75 kWh in vs 0.5 kWh out per segment: the trip needs five segments
        g = ring_with_spurs(visit_limit=visit_limit)
        med = MedState(g, InductionParams(0.75, 18.0), battery_kwh=battery_kwh)
        a = find_shortest_path(g, EvRequest("e", 4, 5, 10.0, 0.9),
                               Infrastructure(med_units=[med]), caches=PathCache(g))
        return g, a

    @pytest.mark.parametrize("visit_limit", [1, 2, 3])
    def test_pass_budget_is_the_visit_limit(self, visit_limit):
        g = ring_with_spurs(visit_limit=visit_limit)
        assert MedState(g, InductionParams(0.75, 18.0)).max_passes == visit_limit
        assert FrozenMed(g, InductionParams(0.75, 18.0)).max_passes == visit_limit

    def test_two_passes_cover_five_segments(self):
        g, a = self.route()
        att = a.q_points[0]
        assert len(att.segments) == 5
        assert sum(att.induced_per_segment) == pytest.approx(3.75)
        assert check_assignment(g, a) == []

    def test_one_pass_strands(self):
        with pytest.raises(Stranded):
            self.route(visit_limit=1)

    def test_charger_battery_caps_the_run(self):
        # the five segments from point 0 take 3 kWh from pass 0 and 0.75 kWh
        # from pass 1; the budget is per pass, so 3 kWh covers the run and
        # 2.9 kWh ends it after three segments
        g, a = self.route(battery_kwh=3.0)
        keys = a.q_points[0].booking_keys
        p = keys[0][1]
        assert keys == ((0, p), (1, p), (2, p), (3, p), (0, p + 1))
        with pytest.raises(Stranded):
            self.route(battery_kwh=2.9)


@st.composite
def strongly_connected_graphs(draw):
    """Random digraph on 3-12 nodes around a Hamiltonian cycle, so every
    ordered pair is reachable. Drive times are whole seconds plus 0, 0.1 or
    0.3 s, so tied routes are common and a sum still rounds by the order of
    its terms; energies are arbitrary floats, so summation order shows in
    the last bit. One node may be a station."""
    n = draw(st.integers(3, 12))
    order = draw(st.permutations(range(n)))
    pairs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=3 * n)))
    arcs = {p: ArcAttr(draw(st.integers(1, 9)) + draw(st.sampled_from((0.0, 0.1, 0.3))),
                       draw(st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)),
                       10.0)
            for p in sorted(pairs)}
    scs = draw(st.lists(st.integers(0, n - 1), max_size=1))
    return build_graph(range(n), arcs, scs_list=scs)


@settings(max_examples=60, deadline=None)
@given(g=strongly_connected_graphs(), start=st.floats(0.0, 30.0))
def test_cached_path_costs_match_the_per_arc_walk(g, start):
    caches = PathCache(g)
    for s in sorted(g.nodes):
        for t in sorted(g.nodes):
            if s == t:
                continue
            path = caches.path(s, t, "time")
            assert path.drive_s == route_time(g, path)
            assert path.energy_kwh == route_energy(g, path)
            assert repr(_arrival_level(path, start)) == repr(route_level(g, path, start))
            # the router composes a walk from the direct path and a detour
            # back, folding drive time as it appends; a per-arc walk of the
            # finished route must give the same floats
            legs, trace = [s], [start]
            end, drive_s = _drive(legs, trace, path, start, 0.0)
            back = caches.path(t, s, "time")
            end, drive_s = _drive(legs, trace, back, end, drive_s)
            eps, reference = start, []
            for i, j in zip(legs, legs[1:]):
                eps -= g.arc(i, j).energy_kwh
                reference.append(eps)
            assert legs == list(path) + list(back[1:])
            assert trace[1:] == reference and end == eps
            assert drive_s == route_time(g, legs)


@st.composite
def random_digraphs(draw):
    """Random digraph on 3-12 nodes, not necessarily connected. Integer drive
    times make tied routes common; about a third of the arcs cost no energy,
    so zero-cost cycles and dead-end tight walks occur."""
    n = draw(st.integers(3, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]), max_size=3 * n))
    energy = st.one_of(st.just(0.0), st.just(1.0),
                       st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False))
    arcs = {p: ArcAttr(float(draw(st.integers(1, 9))), draw(energy), 10.0)
            for p in sorted(pairs)}
    return build_graph(range(n), arcs)


# a cycle, a node reached by two paths of different lengths, and one reached by none
_EXAMPLE_DIGRAPH = build_graph(range(6), {
    (0, 1): ArcAttr(2.0, 0.5, 10.0), (1, 2): ArcAttr(1.0, 0.0, 10.0),
    (2, 0): ArcAttr(3.0, 1.0, 10.0), (0, 3): ArcAttr(1.0, 0.0, 10.0),
    (3, 4): ArcAttr(1.0, 2.0, 10.0), (2, 4): ArcAttr(5.0, 0.5, 10.0)})


def _cost(attr, weight):
    return attr.drive_time_s if weight == "time" else attr.energy_kwh


def bellman_ford(g, source, weight, reverse=False):
    """Reference distances from ``source`` (to it, when ``reverse``)."""
    dist = {source: 0.0}
    for _ in range(len(g.nodes)):
        for (i, j), attr in g.arcs.items():
            tail, head = (j, i) if reverse else (i, j)
            if tail in dist and dist[tail] + _cost(attr, weight) < dist.get(head, math.inf):
                dist[head] = dist[tail] + _cost(attr, weight)
    return dist


class TestCostTablesAndKernel:
    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs(), data=st.data())
    def test_tables_equal_a_sorted_reference(self, g, data):
        # sparse ids in a drawn order and arcs inserted in a drawn order, so
        # a row comes out sorted only if the table builds it sorted
        ids = data.draw(st.permutations([sparse_id(k) for k in g.order]))
        arcs = data.draw(st.permutations(sorted(g.arcs)))
        g = build_graph(ids, {(ids[i], ids[j]): g.arc(i, j) for i, j in arcs})
        for weight in ("time", "energy"):
            for reverse in (False, True):
                rows = [[] for _ in g.order]
                for (i, j), attr in g.arcs.items():
                    tail, head = (j, i) if reverse else (i, j)
                    rows[g.index[tail]].append((g.index[head], _cost(attr, weight), attr))
                assert g.cost_table(weight, reverse) == tuple(tuple(sorted(r)) for r in rows)

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_each_table_lists_every_arc_once_in_id_order(self, g):
        assert g.order == tuple(sorted(g.nodes))
        assert all(g.index[node] == k for k, node in enumerate(g.order))
        for weight in ("time", "energy"):
            for reverse in (False, True):
                table = g.cost_table(weight, reverse)
                assert len(table) == len(g.order)
                listed = []
                for pos, out in enumerate(table):
                    node = g.order[pos]
                    nbrs = [g.order[nbr_pos] for nbr_pos, _, _ in out]
                    assert nbrs == sorted(nbrs)
                    for nbr, (_, cost, attr) in zip(nbrs, out):
                        arc = (nbr, node) if reverse else (node, nbr)
                        assert g.arc(*arc) is attr and cost == _cost(attr, weight)
                        listed.append(arc)
                assert sorted(listed) == sorted(g.arcs)
            # the uniform cost is the shared ArcAttr's, whatever values the arcs hold
            if g.shared_attr is None:
                assert g.uniform_cost(weight) is None
            else:
                assert g.uniform_cost(weight) is _cost(g.shared_attr, weight)

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_head_rows_are_the_first_column_of_both_weights_tables(self, g):
        for reverse in (False, True):
            heads = g.head_table(reverse)
            for weight in ("time", "energy"):
                table = g.cost_table(weight, reverse)
                assert heads == tuple(tuple(nbr for nbr, _, _ in row) for row in table)

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_every_table_and_row_is_a_plain_tuple(self, g):
        # a tuple subclass slows every subscript, so none may come back
        tables = [g.head_table(reverse) for reverse in (False, True)]
        tables += [g.cost_table(weight, reverse)
                   for weight in ("time", "energy") for reverse in (False, True)]
        for table in tables:
            assert type(table) is tuple
            assert all(type(row) is tuple for row in table)

    def test_grid_tables_are_uniform(self):
        # every grid the simulations run on prices each arc alike, so all of
        # their distance maps take the breadth-first search
        grid = load_graph(grid_doc(4, 5), TEST_VEHICLE)
        for g in (sim.load_network(sim.default_scenario()).graph, grid):
            for weight in ("time", "energy"):
                assert g.uniform_cost(weight) == _cost(next(iter(g.arcs.values())), weight)

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs(), drive_s=st.floats(0.0, 1e308, exclude_min=True),
           energies=st.one_of(st.floats(0.0, 1e308).map(lambda e: (e,)),
                              st.sampled_from([(0.0, -0.0), (-0.0, 0.0)])),
           nudge=st.integers(0, 100))
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1.0, energies=(0.0,), nudge=0)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1.0, energies=(0.0, -0.0), nudge=1)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1.0, energies=(-0.0, 0.0), nudge=2)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1e-300, energies=(1e-300,), nudge=3)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=0.1, energies=(0.30000000000000004,), nudge=4)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1e308, energies=(1.0,), nudge=5)
    def test_kernel_matches_the_heap_search_bit_for_bit(self, g, drive_s, energies, nudge):
        # bytes, not ==, so a -0.0 for a 0.0 shows. Every arc of `shared` carries
        # the one ArcAttr `one`, so its maps take the breadth-first search; `equal`
        # carries equal but distinct copies of it, `timed` and `priced` share one
        # value under one weight, and `nudged` has one arc off by an ulp, so with
        # two arcs or more theirs take the heap search. A drive time of 1e308
        # overflows to inf two arcs out
        arcs = sorted(g.arcs)

        def copy(attr_of):
            return build_graph(g.order, {a: attr_of(k, g.arc(*a)) for k, a in enumerate(arcs)})

        one = ArcAttr(drive_s, energies[0], 10.0)
        shared = copy(lambda k, attr: one)
        equal = copy(lambda k, attr: dataclasses.replace(one))
        timed = copy(lambda k, attr: ArcAttr(drive_s, attr.energy_kwh, attr.length_m))
        priced = copy(lambda k, attr: ArcAttr(attr.drive_time_s, energies[k % len(energies)],
                                              attr.length_m))
        bumped = nudge % max(len(arcs), 1)
        nudged = copy(lambda k, attr: ArcAttr(
            math.nextafter(drive_s, math.inf) if k == bumped else drive_s,
            math.nextafter(energies[0], math.inf) if k == bumped else energies[0],
            attr.length_m))
        if arcs:
            assert shared.shared_attr is one
            assert repr((shared.uniform_cost("time"), shared.uniform_cost("energy"))) \
                == repr((drive_s, energies[0]))
        for weight in ("time", "energy"):
            if len(arcs) > 1:  # equal values are not one object: the heap search
                for graph in (equal, timed, priced, nudged):
                    assert graph.uniform_cost(weight) is None
            for reverse in (False, True):
                for source in range(len(g.order)):
                    maps = {}
                    for name, graph in (("g", g), ("shared", shared), ("equal", equal),
                                        ("timed", timed), ("priced", priced),
                                        ("nudged", nudged)):
                        got = routing._dijkstra_dist(graph, source, weight, reverse).tobytes()
                        adj = graph.cost_table(weight, reverse)
                        assert got == ref_dijkstra_dist(adj, source).tobytes(), name
                        maps[name] = got
                    assert maps["equal"] == maps["shared"]

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_distance_maps_match_bellman_ford(self, g):
        caches = PathCache(g)
        for weight in ("time", "energy"):
            for node in g.order:
                for got, want in ((caches.fwd(node, weight), bellman_ford(g, node, weight)),
                                  (caches.rev(node, weight),
                                   bellman_ford(g, node, weight, reverse=True))):
                    assert isinstance(got, array) and got.typecode == "d"
                    assert len(got) == len(g.order)
                    for pos, other in enumerate(g.order):
                        if other in want:
                            assert got[pos] == pytest.approx(want[other], abs=1e-9)
                        else:
                            assert got[pos] == math.inf

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_every_path_is_simple_and_costs_the_distance(self, g):
        caches = PathCache(g)
        for weight in ("time", "energy"):
            for s in sorted(g.nodes):
                ref = bellman_ford(g, s, weight)
                for t in sorted(g.nodes):
                    if t not in ref:
                        with pytest.raises(NoPath):
                            dijkstra(g, s, t, weight)
                        continue
                    path, cost = dijkstra(g, s, t, weight)
                    assert path[0] == s and path[-1] == t
                    assert len(set(path)) == len(path)
                    assert all(g.arc(i, j) is not None for i, j in zip(path, path[1:]))
                    assert cost == pytest.approx(ref[t], abs=1e-9)
                    # the path folds its arcs from the source and the distance
                    # map from the target, so only rounding may part them
                    dist = caches.rev(t, weight)[g.index[s]]
                    assert abs(cost - dist) <= len(path) * math.ulp(dist)

    def test_path_caches_on_one_graph_share_its_tables(self, monkeypatch):
        seen = []  # (graph, source position, weight, reverse) per distance map
        kernel = routing._dijkstra_dist

        def recording(*args):
            seen.append(args)
            return kernel(*args)
        monkeypatch.setattr(routing, "_dijkstra_dist", recording)
        line = line_graph()  # equal but distinct ArcAttrs: give every arc the first one
        g = relabelled(build_graph(line.order, dict.fromkeys(line.arcs, line.arc(0, 1))))
        assert g.shared_attr is line.arc(0, 1)
        built = []  # the graph's head tables after each cache's maps
        for caches in (PathCache(g), PathCache(g)):
            caches.fwd(g.order[0], "energy")
            caches.rev(g.order[5], "energy")
            built.append([g.head_table(reverse) for reverse in (False, True)])
        assert all(a is b for a, b in zip(*built))  # the second cache built none
        assert not g._tables  # a uniform graph's maps read no cost table
        assert [args[0] for args in seen] == [g] * 4
        assert [args[1:] for args in seen] == [(0, "energy", False), (5, "energy", True)] * 2


@settings(max_examples=60, deadline=None)
@given(g=random_digraphs())
def test_sparse_ids_route_like_their_dense_twin(g):
    # positions are 0..n-1 on both graphs, ids only on the dense one; a
    # position read as an id (or the reverse) shows up as a mismatch here
    twin = relabelled(g)
    dense, sparse = PathCache(g), PathCache(twin)
    for weight in ("time", "energy"):
        for n in g.order:
            assert sparse.fwd(sparse_id(n), weight) == dense.fwd(n, weight)
            assert sparse.rev(sparse_id(n), weight) == dense.rev(n, weight)
            for t in g.order:
                try:
                    path, cost = dijkstra(g, n, t, weight)
                except NoPath:
                    with pytest.raises(NoPath):
                        dijkstra(twin, sparse_id(n), sparse_id(t), weight)
                    continue
                assert dijkstra(twin, sparse_id(n), sparse_id(t), weight) == \
                    ([sparse_id(k) for k in path], cost)


class TestLegs:
    """``PathCache.leg``: a path's costs, bit for bit, without walking it where the arcs
    share one ``ArcAttr``."""

    STARTS = (0.0, -0.0, 50.0)  # start levels besides those at the feasibility edge

    def assert_leg_is_the_paths(self, caches, s, t, check_levels=True):
        leg, path = caches.leg(s, t), caches.path(s, t)
        # reprs, so a -0.0 for a 0.0 shows
        assert repr((leg.drive_s, leg.energy_kwh)) == repr((path.drive_s, path.energy_kwh))
        assert len(leg.attrs) == len(path.attrs)
        assert all(a is b for a, b in zip(leg.attrs, path.attrs))
        if check_levels:
            need = path.energy_kwh
            for eps in self.STARTS + (need, need - 1e-9, math.nextafter(need - 1e-9, -1.0)):
                assert repr(_arrival_level(leg, eps)) == repr(_arrival_level(path, eps))

    def test_grid_legs_are_their_paths_costs(self):
        # every shape from 2x2 to 10x10 up to transposition, every ordered pair;
        # the start levels on the square grids
        for rows in range(2, 11):
            for cols in range(rows, 11):
                g = load_graph(grid_doc(rows, cols), TEST_VEHICLE)
                assert g.shared_attr is not None
                caches = PathCache(g)
                for s in g.order:
                    for t in g.order:
                        self.assert_leg_is_the_paths(caches, s, t, rows == cols)

    def test_big_grid_legs_are_their_paths_costs(self):
        g = load_graph(grid_doc(40, 40), TEST_VEHICLE)
        caches = PathCache(g)
        rng = random.Random(0)
        for t in rng.sample(g.order, 40):
            for s in rng.sample(g.order, 50):
                self.assert_leg_is_the_paths(caches, s, t)

    def test_a_leg_without_a_path_raises_no_path(self):
        # one spec, one-way arcs 0 -> 1 -> 2, and node 3 with no arc at all
        doc = {"nodes": [0, 1, 2, 3], "arcs": [
            {"i": i, "j": i + 1, "length_m": 2500.0, "speed_mps": 15.0} for i in (0, 1)]}
        caches = PathCache(load_graph(doc, TEST_VEHICLE))
        assert caches.g.shared_attr is not None
        for s in range(4):
            for t in range(4):
                if s == t or s < t < 3:
                    self.assert_leg_is_the_paths(caches, s, t)
                    continue
                for query in (caches.leg, caches.path):
                    with pytest.raises(NoPath):
                        query(s, t)

    def test_a_long_leg_takes_linear_space(self):
        # one leg builds the one tuple of its arcs; a tuple for every level up
        # to it would hold n * n / 2 references, 36 MB over these 3,000 levels
        n = 3000
        doc = {"nodes": list(range(n)), "arcs": [
            {"i": i, "j": i + 1, "length_m": 100.0, "speed_mps": 10.0} for i in range(n - 1)]}
        caches = PathCache(load_graph(doc, TEST_VEHICLE))
        caches.fwd(0)  # the map the leg reads
        tracemalloc.start()
        try:
            caches.leg(0, n - 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(caches._level_legs) == 1 and held < 2e6
        self.assert_leg_is_the_paths(caches, 0, n - 1)

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs())
    def test_a_mixed_cost_graphs_leg_is_its_path(self, g):
        caches = PathCache(g)
        shared = g.shared_attr is not None
        for s in g.order:
            for t in g.order:
                try:
                    path = caches.path(s, t)
                except NoPath:
                    with pytest.raises(NoPath):
                        caches.leg(s, t)
                    continue
                if shared:
                    self.assert_leg_is_the_paths(caches, s, t)
                else:
                    assert caches.leg(s, t) is path

    def test_only_one_arc_object_is_a_shared_attr(self):
        def line(*attrs):
            return build_graph(range(len(attrs) + 1),
                               {(k, k + 1): attr for k, attr in enumerate(attrs)})
        one = ArcAttr(60.0, 0.5, 900.0)
        assert line(one, one, one).shared_attr is one
        assert line(one).shared_attr is one
        # an equal object is not the one: == takes 60 for 60.0 and -0.0 for 0.0
        for other in (ArcAttr(60.0, 0.5, 900.0), ArcAttr(60, 0.5, 900.0),
                      ArcAttr(60.0, math.nextafter(0.5, 1.0), 900.0)):
            assert line(one, other, one).shared_attr is None
        assert build_graph([0], {}).shared_attr is None
        g = load_graph(grid_doc(3, 4), TEST_VEHICLE)
        assert g.shared_attr is next(iter(g.arcs.values()))

    def test_arcs_of_zero_and_minus_zero_energy_are_walked(self):
        # == takes -0.0 for 0.0, but a level folds them apart: from -0.0 the
        # arcs 0.0 then -0.0 leave 0.0, where 0.0 twice would leave -0.0
        zero, minus = ArcAttr(60.0, 0.0, 900.0), ArcAttr(60.0, -0.0, 900.0)
        arcs = {}
        for k in range(5):
            arcs[(k, k + 1)] = arcs[(k + 1, k)] = zero if k % 2 == 0 else minus
        g = build_graph(range(6), arcs)
        assert zero == minus and g.shared_attr is None
        caches = PathCache(g)
        for s in g.order:
            for t in g.order:
                assert caches.leg(s, t) is caches.path(s, t)
        assert repr(_arrival_level(caches.leg(0, 2), -0.0)) == "0.0"
        assert repr(_arrival_level(caches.leg(0, 1), -0.0)) == "-0.0"
        a = find_shortest_path(g, EvRequest("ev", 0, 2, 50.0, -0.0), Infrastructure(),
                               caches=caches)
        assert repr(a.energy_trace) == "[-0.0, -0.0, 0.0]"


class TestSourceTrees:
    """Where the arcs share one ``ArcAttr``, a time query reads its source's breadth-first
    map, and a time path is that search's parent chain (``PathCache.path``)."""

    @settings(max_examples=60, deadline=None)
    @given(g=random_digraphs(), drive_s=st.floats(0.0, 1e308, exclude_min=True),
           energy=st.floats(0.0, 1e308))
    @example(g=_EXAMPLE_DIGRAPH, drive_s=1e308, energy=1.0)
    @example(g=_EXAMPLE_DIGRAPH, drive_s=60.0, energy=0.0)
    def test_a_tree_path_is_the_lex_path_of_the_targets_map(self, g, drive_s, energy):
        # random_digraphs has one-way arcs and pairs with no path; a drive time of
        # 1e308 overflows to inf two arcs out, so such pairs have none either
        one = ArcAttr(drive_s, energy, 10.0)
        g = build_graph(g.order, dict.fromkeys(g.arcs, one))
        assert g.shared_attr is (one if g.arcs else None)
        caches, reference = PathCache(g), PathCache(g)
        for s in g.order:
            for t in g.order:
                if s == t:
                    continue
                dist = reference.rev(t)[g.index[s]]
                assert repr(caches.distance(s, t)) == repr(dist)
                if g.arcs:
                    assert repr(caches.fwd(s)[g.index[t]]) == repr(dist)
                if dist == math.inf:
                    for query in (caches.path, caches.leg):
                        with pytest.raises(NoPath):
                            query(s, t)
                    continue
                want = routing._lex_path(g.cost_table("time"), g.order, g.index[s],
                                         g.index[t], reference.rev(t))
                got = caches.path(s, t)
                assert list(got) == list(want)
                assert repr((got.drive_s, got.energy_kwh)) == \
                    repr((want.drive_s, want.energy_kwh))
                # energy paths still walk the target's map, as with zero-energy arcs
                # every level sums to 0.0 and the fewest arcs need not win
                if reference.rev(t, "energy")[g.index[s]] < math.inf:
                    assert list(caches.path(s, t, "energy")) == list(routing._lex_path(
                        g.cost_table("energy"), g.order, g.index[s], g.index[t],
                        reference.rev(t, "energy")))
        if g.arcs:  # no time query read a target's map
            assert all(weight == "energy" for _, weight in caches._rev)

    def test_zero_energy_paths_are_not_the_fewest_arcs(self):
        # every arc is tight at 0.0 kWh, so the energy walk takes the smaller
        # neighbour first, 0 -> 1 -> 2, where the fewest-arc time path is 0 -> 2
        one = ArcAttr(60.0, 0.0, 900.0)
        g = build_graph(range(3), dict.fromkeys([(0, 1), (1, 2), (0, 2)], one))
        caches = PathCache(g)
        assert list(caches.path(0, 2, "energy")) == [0, 1, 2]
        assert list(caches.path(0, 2)) == [0, 2]
