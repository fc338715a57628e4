import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsim.charging import BookResult, Infrastructure, MedState, ScsState
from medsim import routing
from medsim.energy import InductionParams
from medsim.oracle import FrozenMed, FrozenScs
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import (EvRequest, NoPath, Stranded, check_assignment,
                            find_best_energy_point, find_shortest_path, PathCache,
                            _arrival_level, _drive)
from tests.conftest import (dijkstra, line_graph, objective_time, relabelled,
                            ring_with_spurs, route_energy, route_feasible, route_level,
                            route_time,
                            sparse_id)


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
                for nbr, _ in g.neighbors(node):
                    if nbr not in path:
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
        g = line_graph()
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 2.0)
        with pytest.raises(Stranded):
            find_best_energy_point(g, PathCache(g), req, 0, 2.0, 0.0, infra,
                                   gate=lambda kind, node: False)


class TestFindShortestPath:
    def test_full_battery_collapses_to_dijkstra(self):
        g = line_graph()
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 50.0, 50.0)
        a = find_shortest_path(g, req, infra)
        assert a.legs == [0, 1, 2, 3, 4, 5]
        assert not a.z_visits and not a.q_points
        assert a.total_time_s == pytest.approx(500.0)
        assert check_assignment(g, a) == []

    def test_single_station_stop_on_line(self):
        g = line_graph()  # station at 3, arcs 100 s / 1 kWh
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 4.0)  # needs 5 kWh
        a = find_shortest_path(g, req, infra)
        assert [v.node for v in a.z_visits] == [3]
        assert a.energy_trace[a.z_visits[0].leg_index] == 10.0  # full after the stop
        # 500 s drive + 0 wait + (10-1)/19.2 h charge
        assert a.total_time_s == pytest.approx(500.0 + 9.0 / 19.2 * 3600.0)
        assert check_assignment(g, a) == []

    def test_med_attach_over_two_segments(self):
        g = ring_with_spurs()
        infra = Infrastructure(med_units=[MedState(g, InductionParams(0.75, 40.0))])
        req = EvRequest("e", 4, 5, 10.0, 0.9)
        a = find_shortest_path(g, req, infra)
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
        a = find_shortest_path(g, req, infra)
        att = a.q_points[0]
        assert len(att.segments) == 5
        assert len({p for _, p in att.booking_keys}) == 2
        assert check_assignment(g, a) == []

    def test_station_behind_source_revisits_legally(self):
        g = line_graph(6, dt=100.0, energy=1.0, scs=(0,))
        infra = Infrastructure(scs_units=[ScsState(0, 19.2)])
        req = EvRequest("e", 1, 5, 10.0, 1.5)
        a = find_shortest_path(g, req, infra)
        assert a.legs == [1, 0, 1, 2, 3, 4, 5]
        assert check_assignment(g, a) == []

    def test_objective_identity(self):
        g = line_graph()
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 4.0)
        a = find_shortest_path(g, req, infra)
        assert a.total_time_s == objective_time(g, a)

    def test_unreachable_destination_is_stranded(self):
        arcs = {(0, 1): ArcAttr(10.0, 0.1, 10.0)}
        g = build_graph([0, 1, 2], arcs)
        with pytest.raises(Stranded):
            find_shortest_path(g, EvRequest("e", 0, 2, 5.0, 5.0), Infrastructure())

    def test_out_of_reach_everywhere_is_stranded(self):
        g = line_graph()  # station at 3
        infra = Infrastructure(scs_units=[ScsState(3, 19.2)])
        req = EvRequest("e", 0, 5, 10.0, 0.5)  # cannot even reach node 1
        with pytest.raises(Stranded):
            find_shortest_path(g, req, infra)

    def test_rejected_booking_raises_not_stranded(self):
        # the ledger refusing a slot the router priced is a fault, not a
        # stranded EV, and the router does not retry it
        calls = []

        class RefusingScs(FrozenScs):
            def book(self, ev, arrival_s, charge_s):
                calls.append(ev)
                return BookResult(False)

        infra = Infrastructure(scs_units=[RefusingScs(3, 19.2, 0.0)])
        with pytest.raises(RuntimeError, match="rejected the slot") as caught:
            find_shortest_path(line_graph(), EvRequest("e", 0, 5, 10.0, 4.0), infra)
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
                               Infrastructure(med_units=[med]))
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
            end, drive_s = _drive(legs, trace, path, start, 0.0, 20.0)
            back = caches.path(t, s, "time")
            end, drive_s = _drive(legs, trace, back, end, drive_s, 20.0)
            eps, reference = start, []
            for i, j in zip(legs, legs[1:]):
                eps = min(eps - g.arc(i, j).energy_kwh, 20.0)
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
        seen = []
        kernel = routing._dijkstra_dist

        def recording(adj, source):
            seen.append((adj, source))
            return kernel(adj, source)
        monkeypatch.setattr(routing, "_dijkstra_dist", recording)
        g = relabelled(line_graph())
        first, second = PathCache(g), PathCache(g)
        for caches in (first, second):
            caches.fwd(g.order[0], "energy")
            caches.rev(g.order[5], "energy")
        assert seen[0][0] is seen[2][0] is g.cost_table("energy")
        assert seen[1][0] is seen[3][0] is g.cost_table("energy", reverse=True)
        assert [source for _, source in seen] == [0, 5, 0, 5]


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
