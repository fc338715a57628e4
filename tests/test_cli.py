import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from medsim import cli, sim
from medsim.cli import SWEEP_HEADER, main
from medsim.oracle import instance_from_json, solve_exact, verify
from medsim.routing import find_shortest_path
from medsim.sim import default_scenario


@pytest.fixture
def scenario_path(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(default_scenario(ev_count=12, seed=1).to_json()))
    return str(p)


class TestGenGrid:
    def test_two_by_two(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen-grid", "--rows", "2", "--cols", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 4
        assert len(doc["arcs"]) == 8

    def test_default_grid_loads(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["gen-grid", "--rows", "10", "--cols", "10",
                   "--scs", "22", "--med-cycle", "44,45,55,54", "--out", str(out)])
        assert rc == 0
        from medsim.road_graph import load_graph
        from medsim.sim import DEFAULT_VEHICLE
        g = load_graph(json.loads(out.read_text()), vehicle=DEFAULT_VEHICLE)
        assert g.med_points == (44, 45, 55, 54)

    def test_open_cycle_exits_two(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["gen-grid", "--rows", "3", "--cols", "3",
                   "--med-cycle", "0,1,8", "--out", str(out)])
        assert rc == 2
        assert not out.exists()  # nothing partial on failure


class TestRun:
    def test_writes_csv_and_aggregates(self, scenario_path, tmp_path):
        csv_out = tmp_path / "rows.csv"
        js_out = tmp_path / "agg.json"
        rc = main(["run", "--scenario", scenario_path, "--out-csv", str(csv_out),
                   "--out-json", str(js_out)])
        assert rc == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0].startswith("ev,arrival_s,source,dest")
        assert len(lines) == 13  # header + 12 EVs
        agg = json.loads(js_out.read_text())
        assert agg["ev_count"] == 12 and agg["violations"] == 0

    def test_byte_identical_reruns(self, scenario_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--scenario", scenario_path, "--out-csv", str(a)])
        main(["run", "--scenario", scenario_path, "--out-csv", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_not_an_integer(self, scenario_path, capsys, monkeypatch):
        monkeypatch.setenv("MEDSIM_SEED", "abc")
        assert main(["run", "--scenario", scenario_path]) == 2
        err = capsys.readouterr().err
        assert "MEDSIM_SEED must be an integer, got 'abc'" in err and err.count("\n") == 1

    def test_env_seed_default(self, scenario_path, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("MEDSIM_SEED", "77")
        main(["run", "--scenario", scenario_path, "--out-csv", str(a)])
        monkeypatch.delenv("MEDSIM_SEED")
        main(["run", "--scenario", scenario_path, "--seed", "77",
              "--out-csv", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_single_cell(self, scenario_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "SCS",
                   "--levels", "L1", "--evs", "10", "--seeds", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 2

    def test_paired_modes_ordered_per_cell(self, scenario_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "SCS,SCS_MED",
                   "--levels", "L2", "--evs", "20,40", "--seeds", "0,1",
                   "--out", str(out)])
        assert rc == 0
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            mode, level, evs, seed, mean_travel, *_ = line.split(",")
            rows[(mode, level, evs, seed)] = float(mean_travel)
        for (mode, level, evs, seed), travel in rows.items():
            if mode == "SCS":
                assert rows[("SCS_MED", level, evs, seed)] <= travel + 1e-9

    def test_parallel_jobs_do_not_change_the_artifact(self, scenario_path, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--scenario", scenario_path, "--modes", "SCS,SCS_MED",
                "--levels", "L1", "--evs", "10,20", "--seeds", "0"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs, evs, workers", [("5000", "10", 1), ("2", "10,20,30", 2)])
    def test_the_pool_starts_no_more_workers_than_mode_pairs(
            self, scenario_path, tmp_path, monkeypatch, jobs, evs, workers):
        # a fork pool starts all its max_workers processes up front; this stand-in
        # records how many the sweep asks for, runs the cells in process and starts none
        import concurrent.futures
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        args = ["sweep", "--scenario", scenario_path, "--modes", "SCS,SCS_MED",
                "--levels", "L1", "--evs", evs, "--seeds", "0"]
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(pooled), "--jobs", jobs]) == 0
        assert asked == [workers]
        assert pooled.read_bytes() == serial.read_bytes()

    def test_importing_the_cli_loads_no_process_pool(self):
        # only a sweep with --jobs > 1 imports the pool, inside that branch
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys, medsim.cli; print(sorted(m for m in sys.modules "
                 "if m.startswith(('concurrent', 'multiprocessing'))))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("option", ["--evs", "--seeds"])
    def test_list_not_of_integers_rejected(self, scenario_path, tmp_path, capsys, option):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", scenario_path, option, "10,x", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{option} must be comma separated integers, got '10,x'" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_spec_rejected(self, scenario_path, tmp_path):
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "",
                   "--levels", "L1", "--evs", "10", "--seeds", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs_rejected(self, scenario_path, tmp_path, jobs, capsys):
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "SCS",
                   "--levels", "L1", "--evs", "10", "--seeds", "0",
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_loads_the_graph_once(self, scenario_path, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "_last_network", None)
        loads = []
        load_graph = sim.load_graph
        monkeypatch.setattr(sim, "load_graph",
                            lambda *args, **kw: loads.append(1) or load_graph(*args, **kw))
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "SCS,SCS_MED",
                   "--levels", "L1,L3", "--evs", "10,20", "--seeds", "0,1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        assert len(loads) == 1

    def test_the_second_mode_of_each_pair_draws_no_population(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "_last_network", None)
        calls, draws = [], []  # the sampler's trip_energy calls; (mode, calls) per run
        need, population = sim.trip_energy, sim.generate_population
        monkeypatch.setattr(sim, "trip_energy", lambda *args: calls.append(1) or need(*args))

        def counting(scenario, *args, **kw):
            start = len(calls)
            spawns = population(scenario, *args, **kw)
            draws.append((scenario.mode, len(calls) - start))
            return spawns
        monkeypatch.setattr(sim, "generate_population", counting)
        scenario = tmp_path / "default.json"
        scenario.write_text(json.dumps(default_scenario().to_json()))
        assert main(["sweep", "--scenario", str(scenario), "--out",
                     str(tmp_path / "sweep.csv")]) == 0
        assert [mode for mode, _ in draws] == ["SCS", "SCS_MED"] * 150
        assert min(n for _, n in draws[0::2]) >= 10
        assert [n for _, n in draws[1::2]] == [0] * 150

    def test_graph_path_is_read_once(self, tmp_path, monkeypatch):
        doc = default_scenario(ev_count=12, seed=1).to_json()
        (tmp_path / "grid.json").write_text(json.dumps(doc["graph"]))
        (tmp_path / "inline.json").write_text(json.dumps(doc))
        del doc["graph"]
        doc["graph_path"] = str(tmp_path / "grid.json")
        (tmp_path / "by_path.json").write_text(json.dumps(doc))
        args = ["--modes", "SCS,SCS_MED", "--levels", "L1", "--evs", "10,20", "--seeds", "0"]
        assert main(["sweep", "--scenario", str(tmp_path / "inline.json"), *args,
                     "--out", str(tmp_path / "inline.csv")]) == 0
        reads = []
        load = json.load
        monkeypatch.setattr(json, "load", lambda fh: reads.append(fh.name) or load(fh))
        assert main(["sweep", "--scenario", str(tmp_path / "by_path.json"), *args,
                     "--out", str(tmp_path / "by_path.csv")]) == 0
        assert reads == [str(tmp_path / "by_path.json"), str(tmp_path / "grid.json")]
        assert (tmp_path / "by_path.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


class TestPinnedOutputs:
    """Byte-identity of the default sweep and run, pinned by sha256.

    A refactor must keep both digests; a change that moves one has to say
    which outputs moved and why. The station slot rule (a priced slot is
    always granted) moved only the sweep digest: 108 of its 300 rows, each
    with fewer stranded EVs.
    """

    RUN_DIGEST = "32645a81a232a9a178b543716d601bbd3f9f4ccbab67704e34daaa0b4ad105b9"
    SWEEP_DIGEST = "002f9d1f35b86b05926b28a4b378ff6bce0bc06ffbe578b41605571743af57f1"

    def digest(self, args, tmp_path):
        scenario = tmp_path / "default.json"
        scenario.write_text(json.dumps(default_scenario().to_json()))
        out = tmp_path / "out.csv"
        assert main([args[0], "--scenario", str(scenario), *args[1:], str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_default_sweep(self, tmp_path):
        assert self.digest(["sweep", "--out"], tmp_path) == self.SWEEP_DIGEST

    def test_default_sweep_two_jobs(self, tmp_path):
        # each worker runs whole mode pairs and remembers its own population
        assert self.digest(["sweep", "--jobs", "2", "--out"], tmp_path) == self.SWEEP_DIGEST

    def test_default_run_l3_100_evs(self, tmp_path):
        args = ["run", "--level", "L3", "--evs", "100", "--seed", "0", "--out-csv"]
        assert self.digest(args, tmp_path) == self.RUN_DIGEST

    def test_default_run_fresh_interpreter_and_warm_network(self, tmp_path, monkeypatch):
        scenario = tmp_path / "default.json"
        scenario.write_text(json.dumps(default_scenario().to_json()))
        args = ["run", "--scenario", str(scenario), "--level", "L3", "--evs", "100"]
        fresh, warm = tmp_path / "fresh.csv", tmp_path / "warm.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run([sys.executable, "-m", "medsim", *args, "--seed", "0",
                        "--out-csv", str(fresh)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        assert hashlib.sha256(fresh.read_bytes()).hexdigest() == self.RUN_DIGEST
        monkeypatch.setattr(sim, "_last_network", None)
        assert main([*args, "--seed", "3", "--out-csv", str(tmp_path / "seed3.csv")]) == 0
        warmed = sim._last_network
        assert main([*args, "--seed", "0", "--out-csv", str(warm)]) == 0
        assert sim._last_network is warmed
        assert warm.read_bytes() == fresh.read_bytes()


class TestPinnedRouterPlans:
    """The router's plans in the 30 default runs, pinned bit for bit.

    Both modes, L1-L3, 100 EVs, seeds 0-4, on one shared network. The digest
    covers every routed EV's whole plan as ``assignment_to_dict`` writes it,
    with floats by ``repr``: walk, trace, stops, gains, booking keys and
    total time. The CSV pins round to six decimals and never see those.
    Pricing each stop from the level the walk records moved only this
    digest: 533 of the 2,327 plans, in the last bits of ``gain_kwh``, a
    station's ``charge_s`` or ``wait_s`` and ``total_time_s``; no trace moved.
    """

    DIGEST = "690d9bd131ab72a1074d175c0f7fe437876c4a209220e939566fc2ba85bbaec8"

    def test_default_runs_digest(self):
        h = hashlib.sha256()
        for mode in sim.MODES:
            for level in ("L1", "L2", "L3"):
                for seed in range(5):
                    scenario = default_scenario(mode=mode, level=level, ev_count=100,
                                                seed=seed)
                    for a in sim.run(scenario).assignments:
                        if a is not None:
                            h.update(json.dumps(cli.assignment_to_dict(a),
                                                sort_keys=True).encode())
        assert h.hexdigest() == self.DIGEST


def _line_arcs(n):
    return [{"i": i, "j": j, "length_m": 1000, "speed_mps": 10, "energy_kwh": 1.0}
            for k in range(n - 1) for i, j in ((k, k + 1), (k + 1, k))]


class TestRouteAndOracle:
    def test_route_direct(self, scenario_path, tmp_path):
        out = tmp_path / "route.json"
        rc = main(["route", "--scenario", scenario_path, "--source", "0",
                   "--dest", "9", "--energy", "40.0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert not doc["stranded"]
        assert doc["assignment"]["legs"][0] == 0
        assert doc["assignment"]["legs"][-1] == 9

    def test_route_takes_the_mode_gate(self, scenario_path, tmp_path):
        # the mode picks the chargers, as in sim.run: SCS mode books no mobile charger
        stops = {}
        for mode in sim.MODES:
            out = tmp_path / f"{mode}.json"
            assert main(["route", "--scenario", scenario_path, "--source", "40", "--dest", "59",
                         "--energy", "1.0", "--mode", mode, "--out", str(out)]) == 0
            plan = json.loads(out.read_text())["assignment"]
            stops[mode] = len(plan["z_visits"]), len(plan["q_points"])
        assert stops == {"SCS": (1, 0), "SCS_MED": (0, 1)}

    def test_route_on_string_ids(self, tmp_path):
        # an endpoint is the node whose id prints as the argument, as the CSVs print it
        arcs = [{**arc, "i": "abc"[arc["i"]], "j": "abc"[arc["j"]]} for arc in _line_arcs(3)]
        scenario = tmp_path / "strings.json"
        scenario.write_text(json.dumps({"graph": {"nodes": ["a", "b", "c"], "arcs": arcs}}))
        out = tmp_path / "route.json"
        assert main(["route", "--scenario", str(scenario), "--source", "a", "--dest", "c",
                     "--energy", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["assignment"]["legs"] == ["a", "b", "c"]

    def test_route_stranded_reported(self, scenario_path, tmp_path):
        out = tmp_path / "route.json"
        rc = main(["route", "--scenario", scenario_path, "--source", "0",
                   "--dest", "99", "--energy", "0.05", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["stranded"]

    def test_oracle_subcommand(self, tmp_path):
        instance = {
            "graph": {"nodes": [0, 1, 2, 3, 4, 5], "arcs": _line_arcs(6), "scs": [3]},
            "request": {"ev": "t", "source": 0, "dest": 5,
                        "capacity_kwh": 10.0, "energy_kwh": 4.0},
            "scs": [{"node": 3, "rate_kw": 19.2, "wait_s": 60.0}],
        }
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance))
        out = tmp_path / "sol.json"
        assert main(["oracle", "--instance", str(inst_path), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["feasible"]
        assert sol["objective_s"] == pytest.approx(2247.5)
        assert sol["assignment"]["z_visits"][0]["node"] == 3


    def test_readme_oracle_example_solves_and_verifies(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Oracle instances"):]
        block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(block)
        out = tmp_path / "sol.json"
        assert main(["oracle", "--instance", str(inst_path), "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        assert sol["feasible"]
        assert sol["objective_s"] == pytest.approx(2247.5)
        inst = instance_from_json(json.loads(block))
        assert verify(inst, solve_exact(inst).best) == "ok"

    def test_station_level_within_tolerance(self, tmp_path):
        # three 1 kWh arcs from 3 kWh less 5e-10 reach the station 5e-10 kWh
        # below zero, inside the feasibility tolerance; charging from that
        # level once raised a bare ValueError in verify and the oracle
        instance = {
            "graph": {"nodes": [0, 1, 2, 3, 4, 5], "arcs": _line_arcs(6), "scs": [3]},
            "request": {"ev": "t", "source": 0, "dest": 5,
                        "capacity_kwh": 10.0, "energy_kwh": 3.0 - 5e-10},
            "scs": [{"node": 3, "rate_kw": 19.2, "wait_s": 60.0}],
        }
        inst = instance_from_json(instance)
        routed = find_shortest_path(inst.graph, inst.request, inst.frozen_infrastructure(),
                                    caches=inst.caches)
        assert routed.z_visits[0].arrive_kwh < 0
        assert verify(inst, routed) == "ok"
        assert solve_exact(inst).objective_s == pytest.approx(routed.total_time_s, rel=1e-12)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance))
        out = tmp_path / "sol.json"
        assert main(["oracle", "--instance", str(inst_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["feasible"]


class TestInvalidRequests:
    """A request the graph or the battery cannot hold exits 2 with one line."""

    @pytest.fixture
    def three_nodes(self, tmp_path):
        p = tmp_path / "three.json"
        p.write_text(json.dumps({"graph": {"nodes": [0, 1, 2], "arcs": _line_arcs(3)}}))
        return str(p)

    @pytest.mark.parametrize("source,dest,energy,extra,message", [
        ("0", "7", "5", [], "endpoint 7 is not a graph node"),
        ("9", "2", "5", [], "endpoint 9 is not a graph node"),
        ("0", "0", "5", [], "route: source and destination must differ"),
        ("0", "2", "500", [], "route: initial energy must lie in [0, capacity]"),
        ("a", "2", "5", [], "endpoint a is not a graph node"),
        ("0", "2", "5", ["--now", "inf"], "route: --now must lie in [0, 1e+09], got inf"),
        ("0", "2", "5", ["--now", "1e300"], "route: --now must lie in [0, 1e+09], got 1e+300"),
        ("0", "2", "5", ["--now", "nan"], "route: --now must lie in [0, 1e+09], got nan"),
        ("0", "2", "5", ["--now", "-1"], "route: --now must lie in [0, 1e+09], got -1.0"),
        ("0", "2", "5", ["--capacity", "inf"], "route: capacity must be positive and finite"),
        ("0", "2", "5", ["--capacity", "1e400"], "route: capacity must be positive and finite"),
        ("0", "2", "0", ["--capacity", "0"], "route: capacity must be positive and finite"),
    ], ids=["unknown-dest", "unknown-source", "same-endpoints", "energy-over-capacity",
            "non-numeric-source", "now-inf", "now-1e300", "now-nan", "now-negative",
            "capacity-inf", "capacity-1e400", "capacity-zero"])
    def test_route(self, three_nodes, tmp_path, capsys, source, dest, energy, extra, message):
        out = tmp_path / "route.json"
        rc = main(["route", "--scenario", three_nodes, "--source", source,
                   "--dest", dest, "--energy", energy, *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def oracle(self, tmp_path, capsys, dest, capacity_kwh=10.0):
        instance = {
            "graph": {"nodes": [0, 1, 2], "arcs": _line_arcs(3)},
            "request": {"source": 0, "dest": dest, "capacity_kwh": capacity_kwh,
                        "energy_kwh": 4.0},
        }
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", str(inst_path)])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        return err

    def test_oracle_unknown_dest(self, tmp_path, capsys):
        assert "endpoint 7 is not a graph node" in self.oracle(tmp_path, capsys, 7)

    def test_oracle_same_endpoints(self, tmp_path, capsys):
        err = self.oracle(tmp_path, capsys, 0)
        assert "request: source and destination must differ" in err

    def test_oracle_infinite_capacity(self, tmp_path, capsys):
        err = self.oracle(tmp_path, capsys, 2, math.inf)
        assert "request: capacity must be positive and finite, got inf" in err


class TestInvalidFiles:
    """A scenario or instance file that cannot be used exits 2 with one line."""

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5"],
    ], ids=["run", "route"])
    def test_rejected_scenario_value(self, tmp_path, capsys, argv):
        doc = default_scenario(ev_count=12).to_json()
        doc["ev_count"] = 500
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", str(p), *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario: ev_count must lie in [0, 100]" in err and err.count("\n") == 1

    def test_nan_arc_energy(self, tmp_path, capsys):
        # Python's json reads NaN; such an arc once loaded and gave a 1 kWh
        # EV a 5 kWh route with no stop and a NaN energy trace
        doc = default_scenario(ev_count=12).to_json()
        doc["graph"]["arcs"][0]["energy_kwh"] = float("nan")
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        assert "NaN" in p.read_text()
        rc = main(["run", "--scenario", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "arc energy must be nonnegative and finite, got nan" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit,message", [
        ({"energy_kwh": None}, "graph arc #5 energy_kwh: must be a number, got None"),
        ({"energy_kwh": float("nan")}, "arc energy must be nonnegative and finite, got nan"),
        ({"speed_mps": 0}, "arc ({i},{j}) has nonpositive speed"),
    ], ids=["null-energy", "nan-energy", "zero-speed"])
    def test_bad_repeat_of_a_shared_arc_spec(self, tmp_path, capsys, edit, message):
        # the default grid's arcs share one spec, built once; a later arc
        # that breaks it in one value still fails with its own message
        doc = default_scenario(ev_count=12).to_json()
        arc = doc["graph"]["arcs"][5]
        arc.update(edit)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        rc = main(["run", "--scenario", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message.format(**arc) in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5", "--scenario"],
        ["sweep", "--out", "sweep.csv", "--scenario"],
        ["oracle", "--instance"],
    ], ids=["run", "route", "sweep", "oracle"])
    def test_not_json(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text('{"graph": ')
        rc = main([*argv, "broken.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "broken.json is not valid JSON" in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5", "--scenario"],
        ["sweep", "--out", "sweep.csv", "--scenario"],
        ["oracle", "--instance"],
    ], ids=["run", "route", "sweep", "oracle"])
    @pytest.mark.parametrize("name,message", [
        ("folder", "cannot read folder: Is a directory"),
        ("absent.json", "cannot read absent.json: No such file or directory"),
        ("binary.json", "cannot read binary.json: 'utf-8' codec can't decode byte 0xff"),
        ("deep.json", "deep.json nests its JSON too deeply to read"),
    ], ids=["directory", "missing", "not-utf-8", "nested-too-deeply"])
    def test_unreadable_file(self, tmp_path, capsys, monkeypatch, argv, name, message):
        # a directory, bytes that are not UTF-8 and a list nested 100,000
        # deep once exited 1 with a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        rc = main([*argv, name])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5"],
        ["sweep", "--out", "sweep.csv"],
    ], ids=["run", "route", "sweep"])
    @pytest.mark.parametrize("graph,message", [
        ("folder", "scenario: cannot read folder: Is a directory"),
        ("broken.json", "scenario: broken.json is not valid JSON"),
    ], ids=["graph-a-directory", "graph-not-json"])
    def test_unreadable_graph_path(self, tmp_path, capsys, monkeypatch, argv, graph, message):
        # a graph path naming a directory once exited 1 with a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "broken.json").write_text('{"nodes": ')
        doc = default_scenario(ev_count=12).to_json()
        doc["graph"] = graph
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", "scenario.json", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("graph,message", [
        ("folder", "cannot read folder: Is a directory"),
        ("broken.json", "broken.json is not valid JSON"),
    ], ids=["graph-a-directory", "graph-not-json"])
    def test_oracle_unreadable_graph_path(self, tmp_path, capsys, monkeypatch, graph, message):
        # both once exited 1 with a traceback
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "broken.json").write_text('{"nodes": ')
        instance = {
            "graph": graph,
            "request": {"source": 0, "dest": 2, "capacity_kwh": 10.0, "energy_kwh": 4.0},
        }
        (tmp_path / "inst.json").write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", "inst.json", "--out", "out.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5"],
        ["sweep", "--out", "sweep.csv"],
    ], ids=["run", "route", "sweep"])
    def test_unknown_key_in_parameter_block(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        doc = default_scenario(ev_count=12).to_json()
        doc["vehicle"]["mass"] = 1.0
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", "scenario.json", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario:" in err and "'mass'" in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("edit,message", [
        ({"start_s": float("nan")}, "med start_s must be finite, got nan"),
        ({"start_s": float("inf")}, "med start_s must be finite, got inf"),
        ({"battery_kwh": float("nan")}, "med battery_kwh must be nonnegative, got nan"),
        ({"battery_kwh": -5.0}, "med battery_kwh must be nonnegative, got -5.0"),
        ({"p_ind_kw": float("nan")}, "med p_ind_kw must be positive and finite, got nan"),
        ({"p_ind_kw": 0.0}, "med p_ind_kw must be positive and finite, got 0.0"),
    ], ids=["start-nan", "start-inf", "battery-nan", "battery-negative", "p-ind-nan",
            "p-ind-zero"])
    def test_rejected_med_spec(self, tmp_path, capsys, monkeypatch, edit, message):
        # a NaN or infinite start once crashed the run in MedState.pass_number,
        # and a bad p_ind_kw in InductionParams; a NaN battery ran unlimited
        # and a negative one switched the charger off
        monkeypatch.chdir(tmp_path)
        doc = default_scenario(ev_count=12).to_json()
        doc["infra"]["med"][0].update(edit)
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main(["run", "--scenario", "scenario.json", "--out-csv", "run.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"scenario: {message}" in err and err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    def test_oracle_rejects_a_nan_charger_battery(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        instance = {
            "graph": {"nodes": [0, 1, 2, 3], "arcs": _line_arcs(4), "med_cycle": [1, 2]},
            "request": {"source": 0, "dest": 3, "capacity_kwh": 10.0, "energy_kwh": 1.5},
            "med": {"c_ind": 0.75, "p_ind_kw": 40.0, "battery_kwh": float("nan")},
        }
        (tmp_path / "inst.json").write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", "inst.json", "--out", "out.json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "med battery_kwh must be nonnegative, got nan" in err and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_sweep_rejected_scenario_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = default_scenario(ev_count=12).to_json()
        doc["vehicle"]["capacity_kwh"] = 5.0
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main(["sweep", "--scenario", "scenario.json", "--out", "sweep.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "scenario: battery capacity must cover the initial-energy band" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--out", "sweep.csv"]],
                             ids=["run", "sweep"])
    def test_level_the_graph_cannot_realize(self, tmp_path, capsys, monkeypatch, argv):
        # a sweep once aborted with exit 1 where run exits 2 on the same document
        monkeypatch.chdir(tmp_path)
        doc = default_scenario(ev_count=12).to_json()
        doc["vehicle"]["mass_kg"] = 1e30  # no trip is cheap enough to be relaxed
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", "scenario.json", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert "could not draw" in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--out-csv", "out.csv"],
        ["sweep", "--out", "out.csv", "--evs", "0", "--seeds", "0"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5", "--out", "out.csv"],
    ], ids=["run", "sweep", "route"])
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["radio"].update(beacon="on"),
         "scenario: radio has an unknown key 'beacon'"),
        (lambda doc: doc.update(horizon_s=float("inf")),
         "scenario: horizon_s must be nonnegative and finite, got inf"),
        (lambda doc: doc.update(horizon_s=float("nan")),
         "scenario: horizon_s must be nonnegative and finite, got nan"),
        (lambda doc: doc.update(horizon_s=-100.0),
         "scenario: horizon_s must be nonnegative and finite, got -100.0"),
        (lambda doc: doc.update(stranded_penalty_s=float("inf")),
         "scenario: stranded_penalty_s must be nonnegative and finite, got inf"),
        (lambda doc: doc.update(stranded_penalty_s=-1.0),
         "scenario: stranded_penalty_s must be nonnegative and finite, got -1.0"),
        (lambda doc: doc["infra"]["scs"][0].update(rate_kw=float("nan")),
         "scenario: station 22 rate_kw must be positive, got nan"),
        (lambda doc: doc["infra"]["scs"][0].update(rate_kw=0.0),
         "scenario: station 22 rate_kw must be positive, got 0.0"),
        (lambda doc: doc["infra"]["scs"][0].update(node=23),
         "station 23 is not a station of the graph"),
        (lambda doc: doc["infra"]["scs"][0].update(node=1000),
         "station 1000 is not a station of the graph"),
        (lambda doc: doc.update(entries=[0, 1000]),
         "entry point 1000 is not a node of the graph"),
        (lambda doc: doc["graph"].update(med_cycle=[]),
         "a mobile charger needs the graph's med_cycle"),
        (lambda doc: doc["graph"]["nodes"][0].update(id=[0]),
         "graph nodes: must be a list of node ids or objects with an id"),
        (lambda doc: doc["graph"]["nodes"][0].update(id={"id": 0}),
         "graph nodes: must be a list of node ids or objects with an id"),
        (lambda doc: doc["graph"]["arcs"][3].update(i=[0]),
         "graph arc #3 i: must be a node id, got [0]"),
        (lambda doc: doc["graph"].update(scs=[[22]]),
         "graph scs: must be a list of node ids, all numbers or all strings, got [[22]]"),
        (lambda doc: doc["graph"].update(med_cycle=[44, {"id": 45}, 55, 54]),
         "graph med_cycle: must be a list of node ids"),
        (lambda doc: doc["graph"].update(entries=[0, [1]]),
         "graph entries: must be a list of node ids"),
        (lambda doc: doc.update(entries=[[0]]), "scenario entries: must be a list of node ids"),
        (lambda doc: doc.update(entries=[0, {"id": 1}]),
         "scenario entries: must be a list of node ids"),
        (lambda doc: doc.update(visit_limit=0), "visit_limit must be an integer >= 1"),
        (lambda doc: doc["graph"]["arcs"][0].update(speed_mps=1e200, length_m=1e250),
         "scenario: arc (0,1) costs the vehicle a non-finite energy"),
        (lambda doc: doc["graph"]["arcs"][0].update(speed_mps=1e120, length_m=1e200),
         "scenario: arc (0,1) costs the vehicle a non-finite energy"),
        (lambda doc: doc["graph"]["arcs"][0].update(length_m=10 ** 400),
         "scenario: graph arc #0 length_m: must be a number, got 1000"),
        (lambda doc: doc.update(infra=[]), "scenario: scenario infra: must be an object, got []"),
        (lambda doc: doc["infra"].update(med=[1]),
         "scenario: infra med entry #0 must be an object"),
        (lambda doc: doc["infra"].update(scs=[22]),
         "scenario: infra scs entry #0 must be an object"),
        (lambda doc: doc.update(ev_count=float("inf")),
         "scenario: scenario ev_count: must be an integer, got inf"),
        (lambda doc: doc.update(ev_count=float("nan")),
         "scenario: scenario ev_count: must be an integer, got nan"),
        (lambda doc: doc.update(seed=float("inf")),
         "scenario: scenario seed: must be an integer, got inf"),
        (lambda doc: doc.update(seed=float("nan")),
         "scenario: scenario seed: must be an integer, got nan"),
        (lambda doc: doc.update(visit_limit=2 ** 63), "visit_limit must be at most 1000"),
        (lambda doc: doc.update(visit_limit=1e308), "visit_limit must be at most 1000"),
        (lambda doc: doc["infra"]["scs"][0].update(rate_kw=1e20),
         "scenario: station 22 rate_kw must be at most 10000, got 1e+20"),
        (lambda doc: doc.update(horizon_s=1e300),
         "scenario: horizon_s must be at most 1e+09, got 1e+300"),
        (lambda doc: doc["infra"]["med"][0].update(start_s=-1e308),
         "scenario: med start_s must be within 1e+09, got -1e+308"),
        (lambda doc: doc["infra"]["med"][0].update(start_s=-1e20),
         "scenario: med start_s must be within 1e+09, got -1e+20"),
    ], ids=["radio-unknown-key", "horizon-inf", "horizon-nan", "horizon-negative",
            "penalty-inf", "penalty-negative", "rate-nan", "rate-zero", "station-not-a-station",
            "station-not-a-node", "entry-not-a-node", "med-without-cycle", "node-id-list",
            "node-id-object", "arc-tail-list", "graph-scs-list", "graph-med-cycle-object",
            "graph-entries-list", "entries-list", "entries-object", "visit-limit-zero",
            "speed-squared-overflows", "energy-overflows", "length-beyond-a-float",
            "infra-list", "infra-med-entry-number", "infra-scs-entry-number", "ev-count-inf",
            "ev-count-nan", "seed-inf", "seed-nan", "visit-limit-2-63", "visit-limit-1e308",
            "rate-1e20", "horizon-1e300", "start-minus-1e308", "start-minus-1e20"])
    def test_rejected_run_input(self, tmp_path, capsys, monkeypatch, argv, edit, message):
        # an infinite horizon once hung the run, a NaN one crashed it and a
        # negative one gave negative arrival times; an infinite penalty made
        # the mean travel time infinite; a NaN rate wrote NaN travel times; a
        # station id off the graph raised a bare KeyError, and one at a plain
        # node left the graph's station unused; a rate of 0 or a charger with
        # no cycle to drive raised a traceback, and so did a node id that is
        # a JSON list or object, an infra block or entry that is not an
        # object, an arc speed whose square overflows a float and a length
        # beyond one; an arc the vehicle priced to an infinite energy aborted
        # a sweep with exit 1. An ev_count or seed of Infinity, a visit_limit
        # of 2**63, a rate or horizon that makes a charge time vanish against
        # the arrival time, and a charger start far from time 0 (it hung the
        # run at -1e308 and skipped 32 passes at -1e20) ended in a traceback
        # too. With no EVs a missed input runs to exit 0 rather than hanging
        # the suite.
        monkeypatch.chdir(tmp_path)
        cells = []
        monkeypatch.setattr(cli, "_sweep_cell", lambda *args: cells.append(args))
        doc = default_scenario(ev_count=0).to_json()
        edit(doc)
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", "scenario.json", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert cells == [] and not (tmp_path / "out.csv").exists()

    def test_largest_accepted_horizon_and_rate_run_clean(self, tmp_path):
        # the bounds hold for EVs that do stop: at the largest horizon, rate
        # and charger starts no booking ends where it starts
        doc = default_scenario(ev_count=100, level="L3").to_json()
        doc["horizon_s"] = sim.HORIZON_MAX_S
        doc["infra"]["scs"][0]["rate_kw"] = sim.STATION_RATE_MAX_KW
        for start_s in (-sim.MED_START_MAX_S, sim.MED_START_MAX_S):
            doc["infra"]["med"][0]["start_s"] = start_s
            (tmp_path / "scenario.json").write_text(json.dumps(doc))
            out = tmp_path / "aggregates.json"
            rc = main(["run", "--scenario", str(tmp_path / "scenario.json"),
                       "--out-json", str(out)])
            agg = json.loads(out.read_text())
            assert rc == 0 and agg["violations"] == 0
            assert agg["n_scs"] > 0 and agg["n_med"] > 0

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["route", "--source", "0", "--dest", "9", "--energy", "5"],
        ["sweep", "--out", "sweep.csv"],
    ], ids=["run", "route", "sweep"])
    @pytest.mark.parametrize("cut,message", [
        (lambda doc: (doc.clear(), doc.update(mode="SCS")),
         "scenario lacks required key 'graph'"),
        (lambda doc: doc["graph"].pop("arcs"), "graph lacks required key 'arcs'"),
        (lambda doc: doc["graph"]["arcs"][3].pop("length_m"),
         "arc #3 lacks required key 'length_m'"),
        (lambda doc: doc["graph"]["arcs"][0].update(speed_mps="fast"),
         "graph arc #0 speed_mps: must be a number, got 'fast'"),
    ], ids=["graph", "arcs", "length_m", "non-numeric"])
    def test_missing_key_or_non_numeric_arc(self, tmp_path, capsys, monkeypatch, argv, cut,
                                            message):
        monkeypatch.chdir(tmp_path)
        doc = default_scenario(ev_count=12).to_json()
        cut(doc)
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        rc = main([argv[0], "--scenario", "scenario.json", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("cut,message", [
        (lambda doc: doc.pop("request"), "instance lacks required key 'request'"),
        (lambda doc: doc["request"].pop("source"), "request lacks required key 'source'"),
        (lambda doc: doc["request"].pop("dest"), "request lacks required key 'dest'"),
        (lambda doc: doc["request"].pop("capacity_kwh"),
         "request lacks required key 'capacity_kwh'"),
        (lambda doc: doc["request"].pop("energy_kwh"),
         "request lacks required key 'energy_kwh'"),
        (lambda doc: doc["graph"].pop("arcs"), "graph lacks required key 'arcs'"),
        (lambda doc: doc["graph"]["arcs"][1].pop("length_m"),
         "arc #1 lacks required key 'length_m'"),
    ], ids=["request", "source", "dest", "capacity_kwh", "energy_kwh", "arcs", "length_m"])
    def test_oracle_missing_required_key(self, tmp_path, capsys, cut, message):
        instance = {
            "graph": {"nodes": [0, 1, 2], "arcs": _line_arcs(3)},
            "request": {"source": 0, "dest": 2, "capacity_kwh": 10.0, "energy_kwh": 4.0},
        }
        cut(instance)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", str(inst_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["scs"][0].update(rate_kw=0.0), "charge rates must be positive"),
        (lambda doc: doc["scs"][0].update(rate_kw=-19.2), "charge rates must be positive"),
        (lambda doc: doc["scs"][0].update(rate_kw="fast"),
         "scs entry #0 rate_kw: must be a number, got 'fast'"),
        (lambda doc: doc["scs"][0].update(wait_s="long"),
         "scs entry #0 wait_s: must be a number, got 'long'"),
        (lambda doc: doc["scs"][0].update(wait_s=-1.0), "waits must be nonnegative"),
        (lambda doc: doc["scs"][0].update(wait_s=float("nan")), "waits must be nonnegative"),
        (lambda doc: doc["scs"][0].update(node=2), "scs node 2 is not a station of the graph"),
        (lambda doc: doc.update(med={"wait_s": {"a": 10.0}}),
         "med wait_s: must be an object mapping integer cycle points to numbers"),
        (lambda doc: doc.update(med={"wait_s": {"1": "soon"}}),
         "med wait_s: must be an object mapping integer cycle points to numbers"),
        (lambda doc: doc.update(med={"wait_s": {"1": 10.0}}),
         "med wait_s point 1 is not a cycle point of the graph"),
        (lambda doc: doc.update(med={"c_ind": "high", "p_ind_kw": 40.0}),
         "med c_ind: must be a number, got 'high'"),
        (lambda doc: doc.update(med={"c_ind": 0.75}), "med lacks required key 'p_ind_kw'"),
        (lambda doc: doc.update(med={"c_ind": 1.5, "p_ind_kw": 40.0}),
         "med: c_ind must be in [0, 1]"),
        (lambda doc: doc.update(med={"battery_kwh": "big"}),
         "med battery_kwh: must be a number, got 'big'"),
        (lambda doc: doc.update(vehicle={"mass": 1.0}), "vehicle has an unknown key 'mass'"),
        (lambda doc: doc["request"].update(capacity_kwh=None),
         "request capacity_kwh: must be a number, got None"),
        (lambda doc: doc.update(scs=[1]), "scs entry #0 must be an object"),
        (lambda doc: doc.update(med=[]), "instance med: must be an object, got []"),
        (lambda doc: doc.update(scs={"node": 1}),
         "instance scs: must be a list of objects, got {'node': 1}"),
        (lambda doc: doc["scs"][0].update(node=[1]),
         "scs entry #0 node: must be a node id, got [1]"),
        (lambda doc: doc.update(med={"wait_s": [10.0]}),
         "med wait_s: must be an object mapping integer cycle points to numbers, got [10.0]"),
        (lambda doc: doc.update(graph=1), "graph must be an object"),
        (lambda doc: doc.update(graph=[]), "graph must be an object"),
        (lambda doc: doc["graph"].update(nodes=3),
         "graph nodes: must be a list of node ids or objects with an id, got 3"),
        (lambda doc: doc["graph"]["arcs"].__setitem__(0, 5), "graph arc #0 must be an object"),
        (lambda doc: doc["graph"].update(arcs={"a": 1}),
         "graph arcs: must be a list of objects, got {'a': 1}"),
        (lambda doc: doc["graph"].update(scs=1),
         "graph scs: must be a list of node ids, all numbers or all strings, got 1"),
        (lambda doc: doc["graph"].update(med_cycle=1),
         "graph med_cycle: must be a list of node ids, all numbers or all strings, got 1"),
        (lambda doc: doc["request"].update(source=[0]),
         "request source: must be a node id, got [0]"),
    ], ids=["rate-zero", "rate-negative", "rate-non-numeric", "wait-non-numeric",
            "wait-negative", "wait-nan", "not-a-station", "med-key-non-integer",
            "med-wait-non-numeric", "med-not-a-cycle-point", "c-ind-non-numeric",
            "p-ind-missing", "c-ind-out-of-range", "battery-non-numeric", "vehicle-unknown-key",
            "capacity-null", "scs-not-objects", "med-not-an-object", "scs-an-object",
            "scs-node-a-list", "med-wait-not-a-map", "graph-a-number", "graph-a-list",
            "nodes-a-number", "arc-a-number", "arcs-an-object", "graph-scs-a-number",
            "med-cycle-a-number", "source-a-list"])
    def test_oracle_rejected_value(self, tmp_path, capsys, edit, message):
        instance = {
            "graph": {"nodes": [0, 1, 2, 3], "arcs": _line_arcs(4), "scs": [1]},
            "request": {"source": 0, "dest": 3, "capacity_kwh": 10.0, "energy_kwh": 1.5},
            "scs": [{"node": 1, "rate_kw": 19.2, "wait_s": 60.0}],
        }
        edit(instance)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance))
        rc = main(["oracle", "--instance", str(inst_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
