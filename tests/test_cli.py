import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from medsim import cli, sim
from medsim.cli import SWEEP_HEADER, main
from medsim.oracle import instance_from_json, solve_exact, verify
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

    def test_importing_the_cli_loads_no_process_pool(self):
        # only a sweep with --jobs > 1 imports the pool, inside that branch
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys, medsim.cli; print(sorted(m for m in sys.modules "
                 "if m.startswith(('concurrent', 'multiprocessing'))))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "[]"

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
        loads = []
        load_graph = sim.load_graph
        monkeypatch.setattr(sim, "load_graph",
                            lambda *args, **kw: loads.append(1) or load_graph(*args, **kw))
        rc = main(["sweep", "--scenario", scenario_path, "--modes", "SCS,SCS_MED",
                   "--levels", "L1,L3", "--evs", "10,20", "--seeds", "0,1",
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        assert len(loads) == 1
        assert cli._sweep_network is None  # released with the sweep

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

    def digest(self, args, tmp_path):
        scenario = tmp_path / "default.json"
        scenario.write_text(json.dumps(default_scenario().to_json()))
        out = tmp_path / "out.csv"
        assert main([args[0], "--scenario", str(scenario), *args[1:], str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_default_sweep(self, tmp_path):
        assert self.digest(["sweep", "--out"], tmp_path) == \
            "002f9d1f35b86b05926b28a4b378ff6bce0bc06ffbe578b41605571743af57f1"

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
    """

    DIGEST = "65ac86f426263cec2cf6b6f942b8418b2556365eb84880e43b8b1ffde6a9577f"

    def test_default_runs_digest(self):
        h = hashlib.sha256()
        network = None
        for mode in sim.MODES:
            for level in ("L1", "L2", "L3"):
                for seed in range(5):
                    scenario = default_scenario(mode=mode, level=level, ev_count=100,
                                                seed=seed)
                    network = network or sim.load_network(scenario)
                    for a in sim.run(scenario, network=network).assignments:
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


class TestInvalidRequests:
    """A request the graph or the battery cannot hold exits 2 with one line."""

    @pytest.fixture
    def three_nodes(self, tmp_path):
        p = tmp_path / "three.json"
        p.write_text(json.dumps({"graph": {"nodes": [0, 1, 2], "arcs": _line_arcs(3)}}))
        return str(p)

    @pytest.mark.parametrize("source,dest,energy,message", [
        ("0", "7", "5", "endpoint 7 is not a graph node"),
        ("9", "2", "5", "endpoint 9 is not a graph node"),
        ("0", "0", "5", "route: source and destination must differ"),
        ("0", "2", "500", "route: initial energy must lie in [0, capacity]"),
    ], ids=["unknown-dest", "unknown-source", "same-endpoints", "energy-over-capacity"])
    def test_route(self, three_nodes, tmp_path, capsys, source, dest, energy, message):
        out = tmp_path / "route.json"
        rc = main(["route", "--scenario", three_nodes, "--source", source,
                   "--dest", dest, "--energy", energy, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def oracle(self, tmp_path, capsys, dest):
        instance = {
            "graph": {"nodes": [0, 1, 2], "arcs": _line_arcs(3)},
            "request": {"source": 0, "dest": dest, "capacity_kwh": 10.0, "energy_kwh": 4.0},
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
        ({"energy_kwh": None}, "arc ({i},{j}) has a non-numeric length, speed or energy"),
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
         "arc (0,1) has a non-numeric length, speed or energy"),
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
         "scs entry #0 has a non-numeric wait_s or rate_kw"),
        (lambda doc: doc["scs"][0].update(wait_s="long"),
         "scs entry #0 has a non-numeric wait_s or rate_kw"),
        (lambda doc: doc["scs"][0].update(wait_s=-1.0), "waits must be nonnegative"),
        (lambda doc: doc["scs"][0].update(wait_s=float("nan")), "waits must be nonnegative"),
        (lambda doc: doc["scs"][0].update(node=2), "scs node 2 is not a station of the graph"),
        (lambda doc: doc.update(med={"wait_s": {"a": 10.0}}),
         "med wait_s must map integer cycle points to numbers"),
        (lambda doc: doc.update(med={"wait_s": {"1": "soon"}}),
         "med wait_s must map integer cycle points to numbers"),
        (lambda doc: doc.update(med={"wait_s": {"1": 10.0}}),
         "med wait_s point 1 is not a cycle point of the graph"),
        (lambda doc: doc.update(med={"c_ind": "high", "p_ind_kw": 40.0}),
         "med: could not convert string to float: 'high'"),
        (lambda doc: doc.update(med={"c_ind": 0.75}), "med lacks required key 'p_ind_kw'"),
        (lambda doc: doc.update(med={"c_ind": 1.5, "p_ind_kw": 40.0}),
         "med: c_ind must be in [0, 1]"),
        (lambda doc: doc.update(med={"battery_kwh": "big"}),
         "med: could not convert string to float: 'big'"),
        (lambda doc: doc.update(vehicle={"mass": 1.0}), "vehicle:"),
        (lambda doc: doc["request"].update(capacity_kwh=None), "request:"),
        (lambda doc: doc.update(scs=[1]), "scs a list of objects"),
        (lambda doc: doc.update(med=[]), "med must be objects"),
        (lambda doc: doc.update(scs={"node": 1}), "scs a list of objects"),
        (lambda doc: doc["scs"][0].update(node=[1]),
         "scs entry #0 has a node that is not a node id"),
        (lambda doc: doc.update(med={"wait_s": [10.0]}),
         "med wait_s must map integer cycle points to numbers"),
    ], ids=["rate-zero", "rate-negative", "rate-non-numeric", "wait-non-numeric",
            "wait-negative", "wait-nan", "not-a-station", "med-key-non-integer",
            "med-wait-non-numeric", "med-not-a-cycle-point", "c-ind-non-numeric",
            "p-ind-missing", "c-ind-out-of-range", "battery-non-numeric", "vehicle-unknown-key",
            "capacity-null", "scs-not-objects", "med-not-an-object", "scs-an-object",
            "scs-node-a-list", "med-wait-not-a-map"])
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
