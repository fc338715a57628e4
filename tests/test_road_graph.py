import pytest
from hypothesis import given, settings, strategies as st

from medsim.charging import MedState
from medsim.road_graph import (ArcAttr, GraphError, build_graph, grid_doc,
                               load_graph)
from tests.conftest import TEST_INDUCTION, TEST_VEHICLE


def triangle(visit_limit=1, scs=()):
    arcs = {
        (0, 1): ArcAttr(30.0, 0.5, 300.0),
        (1, 2): ArcAttr(40.0, 0.6, 400.0),
        (0, 2): ArcAttr(90.0, 1.2, 900.0),
    }
    return build_graph([0, 1, 2], arcs, scs_list=list(scs), visit_limit=visit_limit)


class TestBuildGraph:
    def test_no_chargers_every_cap_is_one(self):
        g = triangle(visit_limit=3)
        assert g.nodes == {0, 1, 2}
        assert [g.visit_cap(n) for n in range(3)] == [1, 1, 1]

    def test_visit_limit_one_with_station(self):
        g = triangle(visit_limit=1, scs=[1])
        assert [g.visit_cap(n) for n in range(3)] == [1, 1, 1]

    def test_visit_limit_caps_only_the_station(self):
        g = triangle(visit_limit=3, scs=[1])
        assert g.nodes == {0, 1, 2} and len(g.arcs) == 3
        assert [g.visit_cap(n) for n in range(3)] == [1, 3, 1]

    def test_med_cycle_time_is_sum_of_arcs(self):
        arcs = {}
        times = [100.0, 150.0, 200.0, 250.0]
        for k, dt in enumerate(times):
            arcs[(k, (k + 1) % 4)] = ArcAttr(dt, 0.5, 1000.0)
        g = build_graph(range(4), arcs, med_cycle=[0, 1, 2, 3], visit_limit=1)
        assert g.med_points == (0, 1, 2, 3)
        assert MedState(g, TEST_INDUCTION).cycle_time_s == pytest.approx(sum(times))

    def test_closed_cycle_given_with_repeated_endpoint(self):
        arcs = {(k, (k + 1) % 3): ArcAttr(10.0, 0.1, 100.0) for k in range(3)}
        g = build_graph(range(3), arcs, med_cycle=[0, 1, 2, 0], visit_limit=1)
        assert g.med_points == (0, 1, 2)

    def test_dangling_arc_rejected(self):
        with pytest.raises(GraphError):
            build_graph([0, 1], {(0, 9): ArcAttr(1.0, 0.1, 10.0)})

    def test_open_cycle_rejected(self):
        arcs = {(0, 1): ArcAttr(10.0, 0.1, 100.0), (1, 2): ArcAttr(10.0, 0.1, 100.0)}
        with pytest.raises(GraphError):
            build_graph([0, 1, 2], arcs, med_cycle=[0, 1, 2])

    def test_station_cannot_be_cycle_point(self):
        arcs = {(k, (k + 1) % 3): ArcAttr(10.0, 0.1, 100.0) for k in range(3)}
        with pytest.raises(GraphError):
            build_graph(range(3), arcs, scs_list=[1], med_cycle=[0, 1, 2])


class TestQueries:
    def test_existing_arc(self):
        assert triangle().arc(0, 1) == ArcAttr(30.0, 0.5, 300.0)

    def test_missing_arc_is_absent(self):
        g = triangle()
        assert g.arc(2, 0) is None
        assert [nbr for nbr, _ in g.neighbors(2)] == []

    def test_self_arc_rejected(self):
        with pytest.raises(GraphError):
            build_graph([0, 1], {(1, 1): ArcAttr(1.0, 0.1, 10.0)})

    def test_queries_are_stable(self):
        g = triangle(visit_limit=2, scs=[1])
        assert g.arc(0, 1) == g.arc(0, 1)
        assert g.neighbors(0) == g.neighbors(0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_build_keeps_the_declared_graph_random_graphs(seed, visit_limit):
    # the graph holds the declared nodes and arcs, whatever visit_limit is;
    # only the visit caps read it, and only at chargers
    import random
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    arcs = {}
    for _ in range(rng.randint(n, 3 * n)):
        i, j = rng.sample(range(n), 2)
        arcs[(i, j)] = ArcAttr(rng.uniform(1, 100), rng.uniform(0, 2), rng.uniform(1, 500))
    station, a, b = rng.sample(range(n), 3)
    for arc in ((a, b), (b, a)):  # a two-point cycle is closed both ways
        arcs.setdefault(arc, ArcAttr(rng.uniform(1, 100), rng.uniform(0, 2), 100.0))
    cycle = [a, b]
    g = build_graph(range(n), arcs, scs_list=[station], med_cycle=cycle,
                    visit_limit=visit_limit)
    assert g.nodes == set(range(n))
    assert g.arcs == arcs
    for k in range(n):
        assert [nbr for nbr, _ in g.neighbors(k)] == sorted(j for i, j in arcs if i == k)
        expect = visit_limit if k == station or k in cycle else 1
        assert g.visit_cap(k) == expect


class TestGrid:
    def test_two_by_two_counts(self):
        doc = grid_doc(2, 2, 1000.0, 10.0)
        assert len(doc["nodes"]) == 4
        assert len(doc["arcs"]) == 8

    def test_default_grid_round_trips(self):
        doc = grid_doc(10, 10, scs=[22], med_cycle=[44, 45, 55, 54])
        g = load_graph(doc, vehicle=TEST_VEHICLE)
        assert len(g.nodes) == 100 and len(g.arcs) == 360
        assert g.med_points == (44, 45, 55, 54)
        # boundary entries, charger nodes excluded
        assert 0 in g.entries and 99 in g.entries
        assert 22 not in g.entries

    def test_positions_in_meters(self):
        # grid_doc writes coordinates; load_graph accepts and ignores them
        doc = grid_doc(3, 3, 500.0, 10.0)
        assert doc["nodes"][4] == {"id": 4, "x": 500.0, "y": 500.0}
        assert load_graph(doc, vehicle=TEST_VEHICLE).nodes == set(range(9))

    def test_energy_resolution_needs_vehicle(self):
        doc = grid_doc(2, 2)
        with pytest.raises(GraphError):
            load_graph(doc, vehicle=None)

    def test_explicit_energy_wins(self):
        doc = grid_doc(2, 2)
        for a in doc["arcs"]:
            a["energy_kwh"] = 0.123
        g = load_graph(doc)
        assert g.arc(0, 1).energy_kwh == 0.123

    def test_repeated_arc_specs_load_like_arcs_built_one_by_one(self):
        # one spec as ints, floats and numeric strings, with and without an
        # energy; arcs whose values convert to equal floats share one ArcAttr
        specs = [
            {"length_m": 2500, "speed_mps": 15},
            {"length_m": 2500.0, "speed_mps": 15.0},
            {"length_m": "2500", "speed_mps": "15"},
            {"length_m": 2500, "speed_mps": 15, "energy_kwh": 0.4},
            {"length_m": "2500.0", "speed_mps": 15, "energy_kwh": "0.4"},
            {"length_m": 1200, "speed_mps": 12.5, "energy_kwh": 0},
        ]
        doc = grid_doc(3, 3)
        for k, a in enumerate(doc["arcs"]):
            del a["length_m"], a["speed_mps"]
            a.update(specs[k % len(specs)])
        alone = {(a["i"], a["j"]): load_graph({"nodes": [a["i"], a["j"]], "arcs": [a]},
                                               vehicle=TEST_VEHICLE).arc(a["i"], a["j"])
                 for a in doc["arcs"]}
        g = load_graph(doc, vehicle=TEST_VEHICLE)
        assert g.arcs == alone
        assert len({id(attr) for attr in g.arcs.values()}) == 3


class TestArcValidation:
    """``ArcAttr`` takes only finite numbers, positive but for a zero energy."""

    @pytest.mark.parametrize("drive,energy,length", [
        (float("nan"), 0.5, 100.0), (float("inf"), 0.5, 100.0), (0.0, 0.5, 100.0),
        (10.0, float("nan"), 100.0), (10.0, float("inf"), 100.0), (10.0, -0.1, 100.0),
        (10.0, 0.5, float("nan")), (10.0, 0.5, float("inf")), (10.0, 0.5, 0.0),
    ], ids=["drive-nan", "drive-inf", "drive-zero", "energy-nan", "energy-inf",
            "energy-negative", "length-nan", "length-inf", "length-zero"])
    def test_rejected(self, drive, energy, length):
        with pytest.raises(GraphError):
            ArcAttr(drive, energy, length)

    def test_zero_energy_accepted(self):
        assert ArcAttr(10.0, 0.0, 100.0).energy_kwh == 0.0

    @pytest.mark.parametrize("edit", [
        {"energy_kwh": float("nan")}, {"energy_kwh": float("inf")},
        {"length_m": float("inf")}, {"speed_mps": float("nan")},
    ], ids=["energy-nan", "energy-inf", "length-inf", "speed-nan"])
    def test_load_graph_rejects_non_finite_arcs(self, edit):
        doc = grid_doc(2, 2)
        doc["arcs"][0].update(edit)
        with pytest.raises(GraphError):
            load_graph(doc, vehicle=TEST_VEHICLE)
