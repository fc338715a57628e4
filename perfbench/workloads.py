"""Seeded inputs, units and output checks of the benchmark's four workloads.

Every input is a plain document built here from the workload seed, in the
JSON schemas the medsim CLI reads; medsim only ever sees the generated
documents. Nothing comes from ``tests/``, so editing the test suite cannot
change a workload.

A workload's ``build`` is the set-up a user pays before the first unit
(writing the scenario file, drawing the instances); its ``run`` executes the
units through a :class:`Units` recorder and returns the pass's output text,
whose sha256 digest makes byte-identity across a refactor checkable.
"""

from __future__ import annotations

import heapq
import json
import os
import random
from dataclasses import dataclass, field

from medsim import cli, oracle, routing, sim

VEHICLE = {"mass_kg": 1800.0, "mu": 0.013, "drag_c": 0.52, "area_m2": 2.2,
           "air_density": 1.2, "efficiency": 0.75, "capacity_kwh": 50.0}
INDUCTION = {"c_ind": 0.75, "p_ind_kw": 40.0}
MODES = ("SCS", "SCS_MED")
LEVELS = ("L1", "L2", "L3")
SWEEP_EVS = tuple(range(10, 101, 10))


class Units:
    """Start and end time, request count and failure of every unit of a pass.

    ``call`` runs one unit; an exception it raises is recorded as the unit's
    failure and re-raised, so a caller that aborts on errors (the sweep CLI)
    still does. ``current`` is the running unit's id, -1 between units.
    ``between`` runs after each unit, outside its timing.
    """

    def __init__(self, clock, between=None):
        self.clock = clock
        self.between = between
        self.starts, self.ends = [], []
        self.requests = 0
        self.failures = []
        self.current = -1

    def call(self, fn, *args, requests=0):
        self.current = len(self.starts)
        self.starts.append(self.clock())
        try:
            return self.enter(fn, *args)
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self.ends.append(self.clock())
            self.requests += requests
            self.current = -1
            if self.between is not None:
                self.between()

    @staticmethod
    def enter(fn, *args):
        """Run the unit itself; the traced pass wraps this in the unit's span."""
        return fn(*args)

    def fail(self, reason):
        """Mark the unit that ran last as failed (once)."""
        uid = len(self.starts) - 1
        if not self.failures or self.failures[-1][0] != uid:
            self.failures.append((uid, reason[:300]))


# -- input documents -------------------------------------------------------------


def grid_graph(rows, cols, arc_len_m=2500.0, speed_mps=15.0, scs=(), med_cycle=()):
    """Graph document of a rows x cols grid with bidirectional uniform arcs.

    Node ids are row-major and the entry points are the boundary nodes that
    carry no charger, as in ``medsim gen-grid``. It is written out here
    rather than taken from medsim, so no change to the program can change
    the inputs it is measured on.
    """
    nodes = [{"id": r * cols + c, "x": c * arc_len_m, "y": r * arc_len_m}
             for r in range(rows) for c in range(cols)]
    arcs = []
    for r in range(rows):
        for c in range(cols):
            n = r * cols + c
            for m in ((n + 1) if c + 1 < cols else None,
                      (n + cols) if r + 1 < rows else None):
                if m is not None:
                    arcs.append({"i": n, "j": m, "length_m": arc_len_m, "speed_mps": speed_mps})
                    arcs.append({"i": m, "j": n, "length_m": arc_len_m, "speed_mps": speed_mps})
    chargers = set(scs) | set(med_cycle)
    entries = [r * cols + c for r in range(rows) for c in range(cols)
               if (r in (0, rows - 1) or c in (0, cols - 1))
               and r * cols + c not in chargers]
    return {"nodes": nodes, "arcs": arcs, "scs": list(scs),
            "med_cycle": list(med_cycle), "entries": entries}


def scenario_doc(graph, *, mode="SCS_MED", ev_count=50, level="L1", seed=0,
                 block_prob=0.05):
    return {
        "graph": graph, "mode": mode, "ev_count": ev_count, "level": level,
        "seed": seed, "horizon_s": 3600.0, "vehicle": dict(VEHICLE),
        "induction": dict(INDUCTION), "radio": {"block_prob": block_prob},
        "infra": {"scs": [{"node": n, "rate_kw": 19.2} for n in graph["scs"]],
                  "med": [{"battery_kwh": 200.0}] if graph["med_cycle"] else []},
        "visit_limit": 2,
    }


def default_scenario_doc():
    """The 10x10 desk-scale scenario behind ``medsim sweep``'s defaults."""
    return scenario_doc(grid_graph(10, 10, scs=[22], med_cycle=[44, 45, 55, 54]))


def _run_scenario(doc):
    # medsim.sim.run is looked up per call, so the traced pass sees its wrapper
    metrics = sim.run(sim.Scenario.from_json(doc), keep_assignments=False)
    return metrics, metrics.to_csv()


def _run_scenarios(docs, units):
    out = []
    for k, doc in enumerate(docs):
        try:
            metrics, text = units.call(_run_scenario, doc, requests=doc["ev_count"])
        except Exception:
            continue  # recorded as the unit's failure
        if metrics.violations:
            units.fail(f"scenario {k}: {metrics.violations[:3]}")
        out.append(f"# unit {k}\n{text}")
    return "".join(out), []


# -- workloads -------------------------------------------------------------------


@dataclass
class Inputs:
    units: list
    extra: dict = field(default_factory=dict)


class PairedSweep:
    """The default paired sweep, driven through the CLI entry point.

    300 cells: both modes x L1-L3 x 10..100 EVs x seeds 0-4, as
    ``medsim sweep`` runs by default, on one graph, with ``--jobs 1``. The
    cells are fixed, so the defaults' known defects (the round-off station
    rejections) stay in the figures. The seed only shuffles each list the
    CLI gets, which reorders the cells; rows are written sorted, so the
    CSV and its digest are the default sweep's for every seed. With seeds
    drawn per run, the per-cell tail measured the draw by 9%.
    """

    name = "paired-sweep"
    sizes = {"full": (SWEEP_EVS, range(5)), "tiny": ((10, 20), range(1))}   # EVs, seeds

    def build(self, seed, size, workdir):
        path = os.path.join(workdir, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(default_scenario_doc(), fh)
        rng = random.Random(f"{self.name}:{seed}")
        lists = [list(MODES), list(LEVELS), *(list(v) for v in self.sizes[size])]
        for values in lists:
            rng.shuffle(values)
        modes, levels, evs, seeds = lists
        out = os.path.join(workdir, "sweep.csv")
        argv = ["sweep", "--scenario", path, "--modes", ",".join(modes),
                "--levels", ",".join(levels), "--evs", ",".join(map(str, evs)),
                "--seeds", ",".join(map(str, seeds)), "--jobs", "1", "--out", out]
        cells = [(m, lv, n, s) for m in modes for lv in levels for n in evs for s in seeds]
        return Inputs(cells, {"argv": argv, "out": out})

    def run(self, inputs, units):
        original = cli._sweep_cell

        def cell(doc, overrides):
            return units.call(original, doc, overrides, requests=overrides["ev_count"])

        cli._sweep_cell = cell
        try:
            code = cli.main(inputs.extra["argv"])
        finally:
            cli._sweep_cell = original
        checks = []
        if code != 0:
            checks.append(f"medsim sweep exited with {code}")
            return "", checks
        with open(inputs.extra["out"], encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if lines[0] != cli.SWEEP_HEADER or len(lines) != len(inputs.units) + 1:
            checks.append(f"sweep CSV has {len(lines)} lines, expected "
                          f"{len(inputs.units) + 1} under the sweep header")
        return text, checks


class RandomGrids:
    """Acceptance criterion 1's scenario distribution, drawn as a balanced design.

    Every grid shape from 2x2 to 10x10 appears once per (level, mode) pair,
    with the six EV-count strata of 0-100 shuffled over those pairs; arc
    scale, charger placement, drop rate and population seed are random as in
    criterion 1. The marginals are criterion 1's, while the total work of a
    pass varies little from seed to seed.
    """

    name = "random-grids"
    sizes = {"full": None, "tiny": 12}   # grids; None: the whole design

    def build(self, seed, size, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        design = []
        for rows in range(2, 11):
            for cols in range(2, 11):
                strata = list(range(6))
                rng.shuffle(strata)
                for (level, mode), stratum in zip(
                        [(lv, m) for lv in LEVELS for m in MODES], strata):
                    design.append((rows, cols, level, mode, stratum))
        rng.shuffle(design)
        if self.sizes[size] is not None:
            design = design[:self.sizes[size]]
        docs = [self._scenario(rng, *cell) for cell in design]
        return Inputs(docs)

    @staticmethod
    def _scenario(rng, rows, cols, level, mode, stratum):
        lo, hi = stratum * 101 // 6, (stratum + 1) * 101 // 6 - 1
        speed = rng.uniform(9.0, 15.0)
        v = VEHICLE
        per_m = v["efficiency"] * (v["mu"] * v["mass_kg"] * 9.8 + 0.5 * v["area_m2"]
                                   * v["drag_c"] * v["air_density"] * speed ** 2) / 3.6e6
        # the grid diameter costs 1.8-3.9 kWh, so trips can be anxious at every level
        arc_len = rng.uniform(1.2, 2.6) * 1.5 / (per_m * (rows + cols - 2))
        med_cycle = []
        if (rows, cols) != (2, 2) and rng.random() < 0.9:
            n = rng.randint(0, rows - 2) * cols + rng.randint(0, cols - 2)
            med_cycle = [n, n + 1, n + 1 + cols, n + cols]
        scs = []
        if rng.random() < 0.9 or not med_cycle:
            scs = [rng.choice([x for x in range(rows * cols) if x not in med_cycle])]
        graph = grid_graph(rows, cols, arc_len, speed, scs=scs, med_cycle=med_cycle)
        return scenario_doc(graph, mode=mode, ev_count=rng.randint(lo, hi), level=level,
                            seed=rng.randrange(2 ** 31),
                            block_prob=rng.choice([0.0, 0.05, 0.1]))

    def run(self, inputs, units):
        return _run_scenarios(inputs.units, units)


class BigGrid:
    """A 40x40 grid, a 4x4 lattice of stations and a central 4-point cycle.

    100 EVs at L3 in both modes for five population seeds drawn from the
    workload seed: long paths and 1,600-node distance maps. With three
    seeds a pass's per-arc lookups differed by 10% from draw to draw, so a
    pass runs five.
    """

    name = "big-grid"
    sizes = {"full": (40, 5), "tiny": (12, 1)}   # grid side, population seeds

    def build(self, seed, size, workdir):
        side, n_seeds = self.sizes[size]
        rng = random.Random(f"{self.name}:{seed}")
        lattice = [side // 8 + side * k // 4 for k in range(4)]
        scs = [r * side + c for r in lattice for c in lattice]
        n = (side // 2 - 1) * side + side // 2 - 1
        graph = grid_graph(side, side, scs=scs, med_cycle=[n, n + 1, n + 1 + side, n + side])
        docs = [scenario_doc(graph, mode=mode, ev_count=100, level="L3", seed=s)
                for s in [rng.randrange(2 ** 31) for _ in range(n_seeds)]
                for mode in MODES]
        return Inputs(docs)

    def run(self, inputs, units):
        return _run_scenarios(inputs.units, units)


class OracleSmall:
    """Single-EV instances solved exactly, routed against frozen chargers, verified.

    The mix of the router-vs-oracle acceptance check: lines with one
    station, 3x4 grids with one or two stations, and rings with spurs
    carrying a mobile charger (half of them plus a station), in balanced
    blocks, with random arc weights, waits, rates and battery states.

    The pool of instances is fixed and the seed only sets the order they
    run in, which changes no instance's cost. The exact search is
    heavy-tailed: a few instances in ten thousand explore over 10^5 states,
    up to a third of a whole pass's search, so a pool drawn per seed would
    make the pass time measure the draw rather than the code.
    """

    name = "oracle-small"
    sizes = {"full": 2000, "tiny": 16}
    KINDS = ("line", "grid", "ring", "ring_scs")

    def build(self, seed, size, workdir):
        rng = random.Random(f"{self.name}:pool")
        docs = []
        while len(docs) < self.sizes["full"]:
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            docs += [self._instance(rng, kind, len(docs) + k) for k, kind in enumerate(kinds)]
        random.Random(f"{self.name}:{seed}").shuffle(docs)
        return Inputs(docs[:self.sizes[size]])

    @staticmethod
    def _instance(rng, kind, k):
        arcs, scs, cycle, med = [], [], [], {}

        def arc(i, j, dt, energy, length):
            arcs.append({"i": i, "j": j, "length_m": length, "speed_mps": length / dt,
                         "energy_kwh": energy})

        if kind == "line":
            n = rng.randint(5, 8)
            dt, energy = rng.uniform(40.0, 300.0), rng.uniform(0.4, 1.5)
            for a in range(n - 1):
                arc(a, a + 1, dt, energy, 1000.0)
                arc(a + 1, a, dt, energy, 1000.0)
            scs = [rng.randrange(n)]
        elif kind == "grid":
            n = 12
            length, speed = rng.uniform(900.0, 2500.0), rng.uniform(9.0, 15.0)
            energy = rng.uniform(0.05, 0.15)
            for a in range(n):
                for b in ((a + 1) if a % 4 < 3 else None, (a + 4) if a < 8 else None):
                    if b is not None:
                        arc(a, b, length / speed, energy, length)
                        arc(b, a, length / speed, energy, length)
            scs = rng.sample(range(n), rng.choice([1, 2]))
        else:
            n = 7
            ring_e, spur_e = rng.uniform(0.3, 0.9), rng.uniform(0.4, 1.2)
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
                arc(a, b, rng.uniform(80.0, 400.0), ring_e, 2000.0)
                arc(b, a, rng.uniform(80.0, 400.0), ring_e, 2000.0)
            for a, b in ((4, 0), (2, 5), (5, 6)):
                arc(a, b, rng.uniform(50.0, 250.0), spur_e, 1000.0)
                arc(b, a, rng.uniform(50.0, 250.0), spur_e, 1000.0)
            scs = [6] if kind == "ring_scs" else []
            cycle = [0, 1, 2, 3]
            med = {"c_ind": rng.uniform(0.7, 0.8), "p_ind_kw": rng.uniform(20.0, 50.0),
                   "wait_s": {p: rng.uniform(0.0, 1200.0) for p in cycle}}
        stations = [{"node": s, "wait_s": rng.uniform(0.0, 1500.0),
                     "rate_kw": rng.choice([19.2, 22.0, 50.0])} for s in scs]
        source, dest = rng.sample(range(n), 2)
        capacity = rng.uniform(6.0, 14.0)
        # scale the start energy around the direct route's need, for a mix of
        # feasible and infeasible direct routes
        need = _time_shortest_energy(arcs, source, dest, default=capacity)
        energy = max(0.0, min(capacity, rng.uniform(0.3, 1.4) * need))
        med["battery_kwh"] = rng.choice([float("inf"), 200.0, 60.0])
        return {"graph": {"nodes": list(range(n)), "arcs": arcs, "scs": scs,
                          "med_cycle": cycle},
                "visit_limit": 2,
                "request": {"ev": f"r{k}", "source": source, "dest": dest,
                            "capacity_kwh": capacity, "energy_kwh": energy},
                "scs": stations, "med": med}

    def run(self, inputs, units):
        lines = []
        for k, doc in enumerate(inputs.units):
            try:
                line, problem = units.call(_oracle_unit, doc, requests=1)
            except Exception:
                continue  # recorded as the unit's failure
            if problem:
                units.fail(f"instance {k}: {problem}")
            lines.append(f"{k},{line}\n")
        return "".join(lines), []


def _time_shortest_energy(arcs, source, dest, default):
    """Energy along a minimum-drive-time path of an instance document.

    Computed here, not by medsim's router, for the same reason as
    :func:`grid_graph`. In these topologies, paths tied on drive time
    also tie on energy, so the tie-break does not matter.
    """
    out = {}
    for a in arcs:
        out.setdefault(a["i"], []).append((a["j"], a["length_m"] / a["speed_mps"], a["energy_kwh"]))
    best = {source: (0.0, 0.0)}
    heap = [(0.0, 0.0, source)]
    while heap:
        t, e, node = heapq.heappop(heap)
        if node == dest:
            return e
        if best[node] < (t, e):
            continue
        for nbr, dt, de in out.get(node, ()):
            cand = (t + dt, e + de)
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                heapq.heappush(heap, (*cand, nbr))
    return default


def _oracle_unit(doc):
    inst = oracle.instance_from_json(doc)
    sol = oracle.solve_exact(inst)
    caches = routing.PathCache(inst.graph)
    problem = ""
    try:
        a = routing.find_shortest_path(inst.graph, inst.request,
                                       inst.frozen_infrastructure(), caches=caches)
    except routing.Stranded:
        return (f"{int(sol.feasible)},{sol.objective_s:.6f},{sol.explored},"
                f"stranded,,"), problem
    verdict = oracle.verify(inst, a)
    if verdict != "ok":
        problem = f"router plan {verdict}"
    elif not sol.feasible:
        problem = "router solved an instance the oracle calls infeasible"
    elif a.total_time_s < sol.objective_s - 1e-9:
        problem = f"router {a.total_time_s} beats the optimum {sol.objective_s}"
    return (f"{int(sol.feasible)},{sol.objective_s:.6f},{sol.explored},"
            f"routed,{a.total_time_s:.6f},{verdict}"), problem


WORKLOADS = {w.name: w for w in (PairedSweep(), RandomGrids(), BigGrid(), OracleSmall())}
