import dataclasses
import gc
import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from medsim import routing, sim
from medsim.oracle import OracleInstance, verify
from medsim.road_graph import ArcAttr, GraphError, build_graph, grid_doc, parse_graph
from medsim.routing import EvRequest, PathCache, trip_energy
from medsim.sim import (DEFAULT_VEHICLE, LEVEL_TARGETS, MODES, CalibrationError, Scenario,
                        default_scenario, generate_population, load_network, run,
                        sample_trips)
from tests.conftest import dijkstra, fresh_run, heterogeneous_scenario, line_graph, sparse_id
from tests.test_acceptance import random_scenario


def anxious(g, s, d, energy_kwh):
    """The sampler's one rule: the battery holds less than the trip needs."""
    return energy_kwh < trip_energy(PathCache(g), s, d)


class TestClassifyAnxious:
    def test_full_battery_short_route(self):
        assert not anxious(line_graph(), 0, 2, 50.0)

    def test_low_battery_long_route(self):
        assert anxious(line_graph(), 0, 3, 1.0)  # 1 kWh per arc

    def test_boundary_is_not_anxious(self):
        assert not anxious(line_graph(), 0, 3, 3.0)


class TestCalibrateLevel:
    def measured_fraction(self, level, n=60, seed=11):
        caches = load_network(default_scenario()).caches
        hits = 0
        for s, d, eps, _flag in sample_trips(caches, level, random.Random(seed), None, n):
            hits += eps < trip_energy(caches, s, d)
        return hits / n

    def test_level_one_lands_near_twenty_percent(self):
        assert 0.15 <= self.measured_fraction("L1") <= 0.25

    def test_level_three_lands_near_ninety_five_percent(self):
        assert 0.90 <= self.measured_fraction("L3") <= 1.00

    def test_degenerate_graph_fails_calibration(self):
        arcs = {(0, 1): ArcAttr(1.0, 1e-6, 1.0), (1, 0): ArcAttr(1.0, 1e-6, 1.0)}
        g = build_graph([0, 1], arcs)
        with pytest.raises(CalibrationError):  # no trip can need more than 1 kWh
            sample_trips(PathCache(g), "L3", random.Random(0), None, 10)

    def test_single_node_graph_cannot_spawn(self):
        g = build_graph([7], {})
        with pytest.raises(CalibrationError):  # even with no trip to draw
            sample_trips(PathCache(g), "L1", random.Random(0), None, 0)

    @staticmethod
    def one_way_line():
        """0 -> 1 -> ... -> 5 at 2 kWh an arc: no node reaches a smaller one."""
        return build_graph(range(6), {(k, k + 1): ArcAttr(100.0, 2.0, 1000.0) for k in range(5)})

    def test_no_anxious_trip_gets_an_unreachable_destination(self):
        caches = PathCache(self.one_way_line())
        trips = sample_trips(caches, "L3", random.Random(3), None, 40)
        assert sum(flag for *_, flag in trips) == 38
        assert all(trip_energy(caches, s, d) < routing.INFINITE for s, d, _, _ in trips)

    def test_entries_that_reach_no_destination_fail_calibration(self):
        caches = PathCache(self.one_way_line())
        with pytest.raises(CalibrationError):  # both trips anxious, and node 5 reaches none
            sample_trips(caches, "L3", random.Random(0), [5], 2)


class TestPopulation:
    def test_mode_does_not_change_the_population(self):
        a_sc = default_scenario(ev_count=30, seed=9, mode="SCS")
        b_sc = default_scenario(ev_count=30, seed=9, mode="SCS_MED")
        # a network each, so the second draws too
        assert generate_population(a_sc, load_network(a_sc)) == \
            generate_population(b_sc, load_network(b_sc))

    def test_arrivals_sorted_within_horizon(self):
        sc = default_scenario(ev_count=25, seed=4)
        pop = generate_population(sc, load_network(sc))
        times = [p.t_arrival_s for p in pop]
        assert times == sorted(times)
        assert all(0.0 <= t <= sc.horizon_s for t in times)

    def test_energy_band(self):
        sc = default_scenario(ev_count=40, seed=2, level="L2")
        assert all(1.0 <= p.energy_kwh <= 6.0 for p in generate_population(sc, load_network(sc)))


class TestRun:
    def test_empty_population(self):
        m = run(default_scenario(ev_count=0))
        assert m.rows == []
        assert m.mean_travel_s() == 0.0
        assert m.med_share() == 0.0

    def test_single_direct_ev_travels_dijkstra_time(self):
        m = run(default_scenario(ev_count=1, seed=8, level="L1", block_prob=0.0))
        row = m.rows[0]
        if not row.anxious:
            sc = default_scenario()
            g = load_network(sc).graph
            _, cost = dijkstra(g, row.source, row.dest)
            assert row.travel_s == pytest.approx(cost)
            assert row.choice == "none"

    def test_non_anxious_never_charge(self):
        m = run(default_scenario(ev_count=60, seed=3, level="L2"))
        for row in m.rows:
            if not row.anxious:
                assert row.choice == "none" and not row.stranded

    def test_no_invariant_violations(self):
        for seed in (0, 1):
            m = run(default_scenario(ev_count=60, seed=seed, level="L3"))
            assert m.violations == []

    def test_paired_modes_med_never_slower(self):
        for seed in (0, 1, 2):
            scs = run(default_scenario(ev_count=40, seed=seed, level="L2", mode="SCS"))
            both = run(default_scenario(ev_count=40, seed=seed, level="L2",
                                        mode="SCS_MED"))
            assert both.mean_travel_s() <= scs.mean_travel_s() + 1e-9

    def test_excluded_evs_make_no_bookings(self):
        m = run(default_scenario(ev_count=50, seed=6, level="L3", block_prob=1.0))
        assert all(r.choice == "none" for r in m.rows)

    def test_scs_mode_builds_no_mobile_charger(self):
        # the mode picks the chargers where they are built: the router
        # scores every charger it is handed
        for mode, n_meds in (("SCS", 0), ("SCS_MED", 1)):
            scenario = default_scenario(mode=mode)
            infra = sim.build_infrastructure(scenario, load_network(scenario).graph)
            assert len(infra.scs_units) == 1 and len(infra.med_units) == n_meds

    def test_routing_by_hand_in_scs_mode_books_no_mobile_charger(self):
        # the README's by-hand routing: ev000 of the default L3 run, 5 -> 42
        # with 1.295 kWh, rides the mobile charger in mode SCS_MED; with the
        # scenario in mode SCS it once still attached, as the router was
        # handed every charger and only sim.run told it which to refuse
        for mode, attaches in (("SCS_MED", 1), ("SCS", 0)):
            scenario = default_scenario(mode=mode, level="L3", ev_count=100, seed=0)
            network = load_network(scenario)
            g = network.graph
            rec = generate_population(scenario, network)[0]
            request = EvRequest(rec.ev, rec.source, rec.dest,
                                scenario.vehicle.capacity_kwh, rec.energy_kwh)
            plan = routing.find_shortest_path(g, request, sim.build_infrastructure(scenario, g),
                                              caches=network.caches)
            assert (rec.ev, rec.source, rec.dest) == ("ev000", 5, 42)
            assert len(plan.q_points) == attaches, mode

    def test_scs_mode_never_uses_the_mobile_charger(self):
        m = run(default_scenario(ev_count=50, seed=6, level="L3", mode="SCS"))
        assert all(r.choice != "med" for r in m.rows)

    def test_default_runs_leave_nothing_for_the_cyclic_collector(self, gc_off):
        # both modes, L1-L3, 100 EVs, seeds 0-4: reference counting alone
        # frees each run
        gc.collect()
        for mode in MODES:
            for level in ("L1", "L2", "L3"):
                for seed in range(5):
                    run(default_scenario(mode=mode, level=level, ev_count=100, seed=seed))
        assert gc.collect() == 0

    def test_determinism_byte_identical_csv(self):
        a = run(default_scenario(ev_count=35, seed=12, level="L2"))
        b = run(default_scenario(ev_count=35, seed=12, level="L2"))
        assert a.to_csv() == b.to_csv()

    def test_waiting_series_covers_charging_evs(self):
        # the rows carry the waiting series: in arrival order, and only an
        # EV that charges can wait
        m = run(default_scenario(ev_count=60, seed=3, level="L3"))
        times = [r.t_arrival_s for r in m.rows]
        assert times == sorted(times)
        assert all(r.wait_s >= 0 if r.choice != "none" else r.wait_s == 0 for r in m.rows)
        assert any(r.wait_s > 0 for r in m.rows)

    def test_aggregates_recomputable_from_rows(self):
        m = run(default_scenario(ev_count=30, seed=5, level="L2"))
        agg = m.aggregates()
        assert agg["mean_travel_s"] == pytest.approx(
            sum(r.travel_s for r in m.rows) / len(m.rows))
        assert agg["n_med"] == sum(1 for r in m.rows if r.choice == "med")
        assert agg["med_share"] == pytest.approx(agg["n_med"] / len(m.rows))

    def test_every_assignment_verifies_against_its_booking_snapshot(self):
        sc = default_scenario(ev_count=50, seed=7, level="L3")
        m = run(sc)
        g = load_network(sc).graph
        checked = 0
        for row, a in zip(m.rows, m.assignments):
            if a is None:
                continue
            inst = OracleInstance(
                g, EvRequest(row.ev, row.source, row.dest,
                             sc.vehicle.capacity_kwh, row.energy_kwh),
                scs_waits={v.node: v.wait_s for v in a.z_visits},
                scs_rates=dict(sc.scs),
                med_waits={p.meet_node: p.wait_s for p in a.q_points},
                induction=sc.induction)
            assert verify(inst, a) == "ok", row.ev
            checked += 1
        assert checked > 0


class TestRunInvariants:
    def test_ledgers_hold_no_conflicts_after_a_heavy_run(self):
        m = run(default_scenario(ev_count=100, seed=2, level="L3"))
        infra = m.infrastructure
        for scs in infra.scs_units:
            spans = sorted((b.start_s, b.end_s) for b in scs.bookings)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-9  # one charging session at a time
        for med in infra.med_units:
            keys = [k for b in med.bookings for k in b.segment_keys]
            assert len(keys) == len(set(keys))  # one EV per segment per pass
            assert all(spent <= med.battery_kwh + 1e-9 for spent in med.pass_dispensed.values())

    def test_queued_station_slot_is_granted(self):
        # ev006 queues at the station behind ev004; its slot once started
        # round-off before ev004's end, the ledger refused it, and the EV was
        # reported stranded
        m = run(default_scenario(ev_count=100, level="L2", seed=0, mode="SCS"))
        row = next(r for r in m.rows if r.ev == "ev006")
        assert not row.stranded and row.choice == "scs" and row.wait_s > 0
        bookings = m.infrastructure.scs_units[0].bookings
        k = [b.ev for b in bookings].index("ev006")
        assert bookings[k].start_s == bookings[k - 1].end_s

    def test_mean_travel_nondecreasing_in_anxiety_within_mode(self):
        seeds = range(4)
        for mode in ("SCS", "SCS_MED"):
            means = []
            for level in ("L1", "L2", "L3"):
                vals = [run(default_scenario(ev_count=60, seed=s, level=level,
                                             mode=mode)).mean_travel_s()
                        for s in seeds]
                means.append(sum(vals) / len(vals))
            assert means[0] <= means[1] <= means[2], (mode, means)

    def test_med_share_nondecreasing_in_anxiety(self):
        seeds = range(4)
        shares = []
        for level in ("L1", "L2", "L3"):
            vals = [run(default_scenario(ev_count=60, seed=s, level=level)).med_share()
                    for s in seeds]
            shares.append(sum(vals) / len(vals))
        assert shares[0] <= shares[1] <= shares[2], shares

    def test_default_parameters_always_gain_while_attached(self):
        from medsim.energy import induced_energy, segment_energy
        from medsim.sim import DEFAULT_INDUCTION, DEFAULT_VEHICLE
        for speed in (5.0, 10.0, 15.0):
            assert segment_energy(DEFAULT_VEHICLE, speed, 300.0) < \
                induced_energy(300.0, DEFAULT_INDUCTION)


class TestSharedNetwork:
    def test_shared_network_matches_a_fresh_graph_per_cell(self):
        first = Scenario.from_json(default_scenario().to_json())
        cells = [dict(mode=mode, level=level, ev_count=ev_count, seed=seed)
                 for mode in MODES for level in LEVEL_TARGETS
                 for ev_count in (20, 60) for seed in (0, 1)]
        network = sim.network_for(first)
        shared = [run(dataclasses.replace(first, **cell)) for cell in cells]
        assert sim._last_network is network
        for cell, metrics in zip(cells, shared):
            fresh = fresh_run(dataclasses.replace(first, **cell))
            assert metrics.aggregates() == fresh.aggregates(), cell
            assert metrics.to_csv() == fresh.to_csv(), cell


class TestRememberedNetwork:
    """A run reuses the last run's network when its key is equal."""

    @pytest.fixture(autouse=True)
    def forget(self, monkeypatch):
        monkeypatch.setattr(sim, "_last_network", None)

    @pytest.mark.parametrize("level", sorted(LEVEL_TARGETS))
    def test_paired_modes_build_no_map_twice(self, monkeypatch, level):
        built = []  # (graph, source position, weight, reverse) per distance map
        kernel = routing._dijkstra_dist

        def recording(*args):
            built.append(args[:4])
            return kernel(*args)
        sampled = []  # maps built while sampling the population, per run
        population = sim.generate_population

        def sampling(*args, **kw):
            start = len(built)
            spawns = population(*args, **kw)
            sampled.append(len(built) - start)
            return spawns
        monkeypatch.setattr(routing, "_dijkstra_dist", recording)
        monkeypatch.setattr(sim, "generate_population", sampling)
        scs, med = (default_scenario(mode=mode, level=level, ev_count=100, seed=5)
                    for mode in MODES)
        first = run(scs)
        mark = len(built)
        second = run(med)
        g = sim._last_network.graph
        # every arc of the grid carries one ArcAttr, so each time query reads the map
        # from its source: a trip's entry or a charger's exit
        sources = {g.index[r.source] for r in second.rows} | set(map(g.index.get, g.scs_nodes))
        from_sources = [(g, pos, "time", False) for pos in sources]
        assert sampled[0] > 0 and sampled[1] == 0
        assert any(key in from_sources for key in built[:mark])
        assert not [key for key in built[mark:] if key in from_sources]
        # the second mode maps only from the mobile charger's points, which the
        # first never scores, and no map is built twice
        assert {key[1] for key in built[mark:]} <= set(map(g.index.get, g.med_points))
        assert len(set(built)) == len(built)
        for sc, metrics in ((scs, first), (med, second)):
            assert metrics.to_csv() == fresh_run(sc).to_csv()

    @pytest.mark.parametrize("mode", MODES)
    def test_a_default_run_builds_no_reverse_cost_table(self, mode):
        # every arc of the grid costs the same, so each distance map is a breadth-first
        # search from its source over the forward head rows, and each path a walk up
        # its parents: no cost table at all
        run(default_scenario(mode=mode))
        g = sim._last_network.graph
        assert not g._tables
        assert list(g._heads) == [False]

    def test_a_scenario_keeps_its_graph_when_the_document_is_edited(self):
        doc = default_scenario(level="L3", ev_count=100, seed=2).to_json()
        sc = Scenario.from_json(doc)
        before = run(sc)
        remembered = sim._last_network
        arc = next(a for a in doc["graph"]["arcs"] if (a["i"], a["j"]) == (12, 22))
        arc["speed_mps"] = 5.0
        assert run(sc).to_csv() == before.to_csv()
        assert sim._last_network is remembered
        assert fresh_run(sc).to_csv() == before.to_csv()

    def test_graph_edited_in_place_gets_a_fresh_network(self):
        doc = default_scenario(level="L3", ev_count=100, seed=2).to_json()
        before = run(Scenario.from_json(doc))
        remembered = sim._last_network
        arc = next(a for a in doc["graph"]["arcs"] if (a["i"], a["j"]) == (12, 22))
        arc["speed_mps"] = 5.0
        sc = Scenario.from_json(doc)
        after = run(sc)
        assert sim._last_network is not remembered
        assert after.to_csv() == fresh_run(sc).to_csv()
        assert after.to_csv() != before.to_csv()

    def test_a_pickled_scenario_loads_nothing(self, monkeypatch):
        # as a sweep worker receives its cells: a copy of the graph value
        sc = default_scenario(level="L2", ev_count=40, seed=1)
        run(sc)
        remembered = sim._last_network
        loads = []
        load_graph = sim.load_graph
        monkeypatch.setattr(sim, "load_graph",
                            lambda *args, **kw: loads.append(1) or load_graph(*args, **kw))
        copy = pickle.loads(pickle.dumps(dataclasses.replace(sc, seed=3)))
        assert copy.graph is not sc.graph and copy.graph == sc.graph
        metrics = run(copy)
        assert sim._last_network is remembered and loads == []
        assert metrics.to_csv() == fresh_run(copy).to_csv()

    @pytest.mark.parametrize("other_graph", [
        lambda g: grid_doc(10, 10, arc_len_m=2400.0, scs=g["scs"], med_cycle=g["med_cycle"]),
        lambda g: {**g, "scs": [22, 23]},
        # equal ids of another type: 1 == 1.0, but the CSV prints 1.0
        lambda g: {
            "nodes": [{**node, "id": float(node["id"])} for node in g["nodes"]],
            "arcs": [{**a, "i": float(a["i"]), "j": float(a["j"])} for a in g["arcs"]],
            **{key: [float(n) for n in g[key]] for key in ("scs", "med_cycle", "entries")},
        },
    ], ids=["arc-length", "stations", "float-ids"])
    def test_a_run_on_another_graph_replaces_the_network(self, other_graph):
        first = default_scenario(level="L2", ev_count=40, seed=1)
        run(first)
        remembered = sim._last_network
        other = default_scenario(level="L2", ev_count=40, seed=1,
                                 graph=other_graph(first.graph.to_json()))
        metrics = run(other)
        assert sim._last_network is not remembered
        assert sim._last_network.key[0] is other.graph
        assert metrics.to_csv() == fresh_run(other).to_csv()
        run(first)
        assert sim._last_network.key[0] is first.graph

    @pytest.mark.parametrize("change", [
        {"vehicle": dataclasses.replace(DEFAULT_VEHICLE, mass_kg=2000.0)},
        {"visit_limit": 3},
    ], ids=["vehicle", "visit_limit"])
    def test_another_vehicle_or_visit_limit_replaces_the_network(self, change):
        # arc energies and station visit caps come from these, not the document
        first = default_scenario(level="L3", ev_count=100, seed=4)
        run(first)
        remembered = sim._last_network
        other = default_scenario(level="L3", ev_count=100, seed=4, graph=first.graph, **change)
        metrics = run(other)
        assert sim._last_network is not remembered
        assert metrics.to_csv() == fresh_run(other).to_csv()

    def test_equal_documents_load_once(self, monkeypatch):
        loads = []
        load_graph = sim.load_graph
        monkeypatch.setattr(sim, "load_graph",
                            lambda *args, **kw: loads.append(1) or load_graph(*args, **kw))
        doc = default_scenario(ev_count=20).to_json()
        for seed in range(5):
            run(Scenario.from_json(doc, seed=seed))
        assert len(loads) == 1
        run(Scenario.from_json(json.loads(json.dumps(doc))))
        assert len(loads) == 1
        nodes = doc["graph"]["nodes"]
        nodes[99] = {**nodes[99], "id": 99.0}
        run(Scenario.from_json(doc))
        assert len(loads) == 2

    @pytest.mark.parametrize("edit", [
        lambda arcs: arcs[0].update(speed_mps=15),
        lambda arcs: arcs[0].update(speed_mps="15"),
        lambda arcs: arcs[0].update(length_m=2500.0, speed_mps=15.0),
        lambda arcs: arcs.insert(0, {**arcs[7], "length_m": 1234, "speed_mps": "10"}),
    ], ids=["int", "string", "float", "overridden-repeat"])
    def test_a_document_and_its_to_json_load_once(self, monkeypatch, edit):
        # 10, "10" and 10.0 are one spec, and a spec only an overridden
        # repeat of an arc used is dropped, so the normalized document parses
        # to the same value and a scenario rebuilt from it shares the network
        loads = []
        load_graph = sim.load_graph
        monkeypatch.setattr(sim, "load_graph",
                            lambda *args, **kw: loads.append(1) or load_graph(*args, **kw))
        doc = default_scenario(ev_count=30, level="L3").to_json()
        doc["graph"]["arcs"][1].update(length_m=2500, speed_mps="15.0")
        edit(doc["graph"]["arcs"])
        first = Scenario.from_json(doc)
        assert parse_graph(first.graph.to_json()) == first.graph
        again = Scenario.from_json(first.to_json())
        assert again.graph == first.graph
        assert run(again).to_csv() == run(first).to_csv()
        assert len(loads) == 1

    @pytest.mark.parametrize("as_path", [str, os.fsencode], ids=["str", "bytes"])
    def test_graph_file_edited_between_runs_gets_a_fresh_network(self, tmp_path, as_path):
        graph = default_scenario().graph.to_json()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(graph))
        before = run(default_scenario(level="L3", ev_count=100, seed=2, graph=as_path(path)))
        arc = next(a for a in graph["arcs"] if (a["i"], a["j"]) == (12, 22))
        arc["speed_mps"] = 5.0
        path.write_text(json.dumps(graph))
        sc = default_scenario(level="L3", ev_count=100, seed=2, graph=as_path(path))
        assert sc.graph.to_json() == graph
        after = run(sc)
        assert after.to_csv() == fresh_run(sc).to_csv()
        assert after.to_csv() != before.to_csv()

    def test_only_the_last_network_stays_alive(self):
        run(default_scenario(ev_count=10))
        remembered = weakref.ref(sim._last_network)
        other = grid_doc(4, 4, arc_len_m=2500.0, scs=[5], med_cycle=[9, 10])
        run(default_scenario(ev_count=10, graph=other, scs=[(5, 19.2)]))
        gc.collect()
        assert remembered() is None


class TestRememberedPopulation:
    """A run reuses its network's last draw when everything else the draw reads is equal."""

    @pytest.fixture(autouse=True)
    def forget(self, monkeypatch):
        monkeypatch.setattr(sim, "_last_network", None)

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []  # the sampler's trip_energy calls: at least one per trip drawn
        need = sim.trip_energy
        monkeypatch.setattr(sim, "trip_energy", lambda *args: calls.append(1) or need(*args))
        return calls

    def test_the_second_mode_of_a_pair_draws_nothing(self, draws):
        scs, med = (default_scenario(mode=mode, level="L3", ev_count=100, seed=5)
                    for mode in MODES)
        first = run(scs)
        assert len(draws) >= 100
        draws.clear()
        second = run(med)
        assert draws == []
        # new records per run: the second run's outcomes leave the first's alone
        assert not {id(r) for r in first.rows} & {id(r) for r in second.rows}
        for sc, metrics in ((scs, first), (med, second)):
            assert metrics.to_csv() == fresh_run(sc).to_csv()

    def test_a_new_network_draws_again(self, draws):
        # the draw lives on the network: forgetting the network forgets the draw
        scenario = default_scenario(level="L3", ev_count=100, seed=5)
        first = run(scenario)
        draws.clear()
        again = fresh_run(scenario)
        assert draws
        assert again.to_csv() == first.to_csv()

    @pytest.mark.parametrize("change", [
        {"seed": 6}, {"ev_count": 99}, {"level": "L2"}, {"horizon_s": 1800.0},
        {"block_prob": 0.5}, {"entries": [0, 1, 2]},
        # equal ids of another type: 1 == 1.0, but the CSV prints 1.0
        {"entries": [0.0, 1.0, 2.0, 3.0]},
        {"vehicle": dataclasses.replace(DEFAULT_VEHICLE, mass_kg=2000.0)},
        {"graph": grid_doc(10, 10, arc_len_m=2400.0, scs=[22], med_cycle=[44, 45, 55, 54])},
    ], ids=["seed", "ev_count", "level", "horizon_s", "block_prob", "entries",
            "entries-float", "vehicle", "graph"])
    def test_any_change_the_draw_reads_draws_again(self, draws, change):
        base = default_scenario(level="L3", ev_count=100, seed=5, entries=[0, 1, 2, 3])
        run(base)
        other = dataclasses.replace(base, **change)
        draws.clear()
        metrics = run(other)
        assert draws
        assert metrics.to_csv() == fresh_run(other).to_csv()


class TestScenarioJson:
    def test_round_trip(self):
        sc = default_scenario(ev_count=20, seed=3, level="L2", mode="SCS")
        doc = sc.to_json()
        again = Scenario.from_json(doc)
        assert again.mode == "SCS" and again.level == "L2"
        assert again.vehicle == sc.vehicle
        assert again.scs == sc.scs
        assert run(again).to_csv() == run(sc).to_csv()

    @staticmethod
    def _assert_legacy_key_ignored(key):
        # scenario files written before the field was dropped still load and run
        doc = default_scenario(ev_count=10, seed=4).to_json()
        assert doc["radio"] == {"block_prob": 0.05}
        legacy = {**doc, "radio": {**doc["radio"], key: 1.0}}
        assert run(Scenario.from_json(legacy)).to_csv() == \
            run(Scenario.from_json(doc)).to_csv()

    def test_legacy_beacon_period_is_ignored(self):
        self._assert_legacy_key_ignored("beacon_period_s")

    @pytest.mark.parametrize("key", ["ptx_dbm", "f_ghz", "pth_dbm", "sinr_db"])
    def test_legacy_radio_key_is_ignored(self, key):
        self._assert_legacy_key_ignored(key)

    @pytest.mark.parametrize("mode", MODES)
    def test_sparse_node_ids_run_like_the_default_grid(self, mode):
        # order-preserving ids that are never positions: the run must not
        # notice, once source and dest are mapped back
        doc = default_scenario(mode=mode, level="L3", ev_count=100).to_json()
        graph = doc["graph"]
        relabelled = {**doc, "graph": {
            "nodes": [{**node, "id": sparse_id(node["id"])} for node in graph["nodes"]],
            "arcs": [{**a, "i": sparse_id(a["i"]), "j": sparse_id(a["j"])} for a in graph["arcs"]],
            "scs": [sparse_id(n) for n in graph["scs"]],
            "med_cycle": [sparse_id(n) for n in graph["med_cycle"]],
            "entries": [sparse_id(n) for n in graph["entries"]],
        }, "infra": {**doc["infra"], "scs": [{**st, "node": sparse_id(st["node"])}
                                             for st in doc["infra"]["scs"]]}}
        dense = {sparse_id(n): n for n in range(100)}
        lines = run(Scenario.from_json(relabelled)).to_csv().splitlines()
        for k in range(1, len(lines)):
            cols = lines[k].split(",")
            cols[2], cols[3] = str(dense[int(cols[2])]), str(dense[int(cols[3])])
            lines[k] = ",".join(cols)
        assert "\n".join(lines) + "\n" == run(Scenario.from_json(doc)).to_csv()

    def test_round_trip_keeps_the_graph_value(self):
        sc = default_scenario(level="L3", ev_count=100, seed=2)
        again = Scenario.from_json(json.loads(json.dumps(sc.to_json())))
        assert again.graph is not sc.graph
        assert again.graph == sc.graph and again.graph.id_types == sc.graph.id_types
        assert fresh_run(again).to_csv() == fresh_run(sc).to_csv()

    def test_to_json_writes_the_normalized_graph(self):
        # node x/y and the first of two arcs (0, 1) are dropped, numbers are
        # floats, a missing energy stays missing and the entries are written
        graph = {"nodes": [{"id": 0, "x": 1.0, "y": 2.0}, 1, 2], "scs": [2], "arcs": [
            {"i": 0, "j": 1, "length_m": 100, "speed_mps": "10"},
            {"i": 1, "j": 2, "length_m": 100.0, "speed_mps": 10, "energy_kwh": 0},
            {"i": 0, "j": 1, "length_m": 200, "speed_mps": 10, "note": "resurfaced"}]}
        normalized = {
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "arcs": [{"i": 0, "j": 1, "length_m": 200.0, "speed_mps": 10.0},
                     {"i": 1, "j": 2, "length_m": 100.0, "speed_mps": 10.0, "energy_kwh": 0.0}],
            "scs": [2], "med_cycle": [], "entries": [0, 1]}
        assert parse_graph(graph).to_json() == normalized
        assert parse_graph(normalized).to_json() == normalized

    def test_overrides(self):
        doc = default_scenario().to_json()
        sc = Scenario.from_json(doc, mode="SCS", ev_count=5, seed=99)
        assert (sc.mode, sc.ev_count, sc.seed) == ("SCS", 5, 99)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_scenario(mode="WALKING")
        with pytest.raises(ValueError):
            default_scenario(ev_count=101)
        with pytest.raises(ValueError):
            default_scenario(level="L9")


class TestScenarioChecks:
    """Every input check runs when a scenario is built, so nothing fails once a network loads."""

    @pytest.fixture(autouse=True)
    def no_network_loads(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a network loaded")
        monkeypatch.setattr(sim, "load_graph", refuse)

    @pytest.mark.parametrize("change,message", [
        ({"scs": [(23, 19.2)]}, "station 23 is not a station of the graph"),
        ({"scs": [(1000, 19.2)]}, "station 1000 is not a station of the graph"),
        ({"entries": [0, 1000]}, "entry point 1000 is not a node of the graph"),
        ({"graph": grid_doc(10, 10, scs=[22])}, "a mobile charger needs the graph's med_cycle"),
        ({"visit_limit": 0}, "visit_limit must be an integer >= 1"),
    ], ids=["station-not-a-station", "station-not-a-node", "entry-not-a-node",
            "charger-without-cycle", "visit-limit-zero"])
    def test_rejected_when_built_and_when_replaced(self, change, message):
        with pytest.raises(GraphError, match=message):
            default_scenario(**change)
        with pytest.raises(GraphError, match=message):
            dataclasses.replace(default_scenario(), **change)


class TestPinnedRandomScenarios:
    """Byte-identity beyond the default grid: criterion 1's random scenarios.

    Seeds 0-59 of the acceptance suite's generator (2x2 to 10x10 grids,
    either mode, every level, with and without a station or a charger
    cycle), each run's CSV hashed in seed order. A refactor must keep the
    digest; a change that moves it has to say which outputs moved and why.
    """

    DIGEST = "b8dfcf229a817954d297d9771675bb9e6069aecd048ad3a2c879a31b55570594"

    def test_criterion_one_sample_digest(self):
        h = hashlib.sha256()
        for seed in range(60):
            h.update(run(random_scenario(seed), keep_assignments=False).to_csv().encode())
        assert h.hexdigest() == self.DIGEST


class TestArcCaps:
    """ROADMAP item 1: the router drives a plain arc more often than the formulation allows.

    ``verify`` caps each arc (i, j) at ``visit_cap(i) * visit_cap(j)`` driven
    times, and ``solve_exact`` searches under that cap. In these criterion-1
    scenarios a routed plan breaks it, and ``check_assignment`` reports none
    of them: in scenario 122, ``ev001`` drives (16, 15) twice. The fix for
    item 1 turns this test into an unexpected pass, which fails the suite
    until the mark comes off.
    """

    SCENARIOS = (122, 127, 259, 460, 632, 752, 772, 870, 970)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_every_routed_plan_respects_the_arc_caps(self):
        over = []
        for seed in self.SCENARIOS:
            scenario = random_scenario(seed)
            metrics = run(scenario)
            cap = sim.network_for(scenario).graph.visit_cap
            for a in filter(None, metrics.assignments):
                over += [(seed, a.ev, (i, j), n) for (i, j), n in Counter(a.x_arcs).items()
                         if n > cap(i) * cap(j)]
        assert over == []


class TestLegsInRuns:
    """Runs price with legs (``PathCache.leg``) and walk only the paths an EV drives."""

    @pytest.fixture(autouse=True)
    def forget(self, monkeypatch):
        monkeypatch.setattr(sim, "_last_network", None)

    # paths built by the default 100-EV run at L3, seed 0, on a fresh network, a ride
    # ending at the destination's one-node path included: at most one per path an EV
    # drives, none for a leg
    BUILDS = {"SCS": 65, "SCS_MED": 129}

    @pytest.mark.parametrize("mode", MODES)
    def test_a_default_run_walks_only_the_paths_its_evs_drive(self, mode):
        metrics = run(default_scenario(mode=mode, level="L3", ev_count=100))
        built = len(sim._last_network.caches._paths)  # each path is built once, then kept
        assert built == self.BUILDS[mode]
        driven = sum(1 + len(a.z_visits) + len(a.q_points)
                     for a in filter(None, metrics.assignments))
        assert built <= driven

    @staticmethod
    def _runs():
        """CSV and plans, floats by repr, of the default 100-EV runs at L3 in both modes."""
        out = []
        for mode in MODES:
            metrics = fresh_run(default_scenario(mode=mode, level="L3", ev_count=100))
            out.append((metrics.to_csv(), repr(metrics.assignments)))
        return out

    def test_runs_priced_with_legs_match_runs_priced_with_walks(self, monkeypatch):
        legs = self._runs()
        assert sim._last_network.caches._level_legs  # the grid's legs took the shortcut
        monkeypatch.setattr(routing.PathCache, "leg", lambda caches, s, t: caches.path(s, t))
        assert self._runs() == legs
        assert not sim._last_network.caches._level_legs

    def test_equal_but_distinct_arc_attrs_are_walked(self, monkeypatch):
        # build_graph keeps each arc's own ArcAttr: equal fields, distinct objects
        legs = self._runs()
        load = sim.load_graph

        def distinct(*args, **kw):
            g = load(*args, **kw)
            return build_graph(g.order, {arc: dataclasses.replace(attr)
                                         for arc, attr in g.arcs.items()},
                               g.scs_nodes, g.med_points, g.visit_limit, g.entries)
        monkeypatch.setattr(sim, "load_graph", distinct)
        assert self._runs() == legs
        network = sim._last_network
        assert network.graph.shared_attr is None and not network.caches._level_legs


class TestHeterogeneousNetworks:
    """Fleet runs on random networks that are not grids (``heterogeneous_scenario``).

    No two arcs share an ``ArcAttr``, so every leg is a walked path. A graph
    of 3-nearest-neighbour links can fall apart, and the one-way family
    drops arcs too, so both families have pairs of nodes with no path.
    """

    SEEDS = range(100)

    @pytest.mark.parametrize("one_way", [False, True])
    def test_runs_hold_every_invariant(self, one_way):
        unreachable = 0  # (entry, node) pairs with no path, over the family
        for seed in self.SEEDS:
            scenario = heterogeneous_scenario(seed, one_way)
            metrics = run(scenario)
            g = sim.network_for(scenario).graph
            assert g.shared_attr is None
            assert metrics.violations == [], (seed, metrics.violations[:3])
            reach, succ = {}, {node: [] for node in g.nodes}
            for tail, head in g.arcs:
                succ[tail].append(head)
            for source in g.entries:
                seen, todo = {source}, [source]
                while todo:
                    node = todo.pop()
                    for nbr in succ[node]:
                        if nbr not in seen:
                            seen.add(nbr)
                            todo.append(nbr)
                reach[source] = seen
                unreachable += len(g.nodes) - len(seen)
            # no anxious EV is drawn for a pair with no path between them
            assert all(r.dest in reach[r.source] for r in metrics.rows if r.anxious), seed
        assert unreachable > 0

    def test_every_chosen_stop_reaches_the_destination(self, monkeypatch):
        # the one-way family has points with no path on to a destination; the
        # scorer picks none of them, so the tail after each stop exists
        finish = []
        pick = routing.find_best_energy_point

        def checked(g, caches, request, *args):
            got = pick(g, caches, request, *args)
            exit_node = got.point if got.kind == "scs" else got.ride[-1][0].j
            finish.append(caches.rev(request.dest)[g.index[exit_node]])
            return got
        monkeypatch.setattr(routing, "find_best_energy_point", checked)
        for seed in self.SEEDS:
            run(heterogeneous_scenario(seed, True))
        assert finish and max(finish) < math.inf

    # runs on string node ids, one line per run with the digest of its CSV and plans: each
    # family's, and the default grid's in both modes, whose tied paths follow the order of
    # table rows
    STRING_ID_RUNS = """
import dataclasses, hashlib, sys
from medsim import sim
from tests.conftest import heterogeneous_scenario

def name(k):
    return f"n{k}"  # string order puts n10 before n2, unlike the int ids

scenarios = [heterogeneous_scenario(seed, one_way)
             for one_way in (False, True) for seed in range(int(sys.argv[1]))]
scenarios += [sim.default_scenario(mode=mode, level="L3", ev_count=100) for mode in sim.MODES]
for k, scenario in enumerate(scenarios):
    doc = scenario.graph.to_json()
    graph = {"nodes": [name(n["id"]) for n in doc["nodes"]],
             "arcs": [{**a, "i": name(a["i"]), "j": name(a["j"])} for a in doc["arcs"]],
             **{key: list(map(name, doc[key])) for key in ("scs", "med_cycle", "entries")}}
    scenario = dataclasses.replace(scenario, graph=graph,
                                   scs=[(name(n), rate) for n, rate in scenario.scs])
    metrics = sim.run(scenario)
    assert all(isinstance(n, str) for n in sim.network_for(scenario).graph.nodes)
    print(k, hashlib.sha256((metrics.to_csv() + repr(metrics.assignments)).encode()).hexdigest())
"""

    def test_runs_on_string_ids_do_not_depend_on_the_hash_seed(self):
        # a string's hash, and so the order of a set of string ids, changes with
        # PYTHONHASHSEED; no table row, draw or output may follow that order
        root = Path(__file__).resolve().parents[1]
        outs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
            outs.append(subprocess.run(
                [sys.executable, "-c", self.STRING_ID_RUNS, str(len(self.SEEDS))], cwd=root,
                env=env, capture_output=True, text=True, check=True).stdout)
        assert len(outs[0].splitlines()) == 2 * len(self.SEEDS) + len(MODES)
        assert outs[0] == outs[1]
