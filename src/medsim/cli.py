"""Command line front end: graph generation, one-shot routing, oracle solves,
single runs, and paired sweeps emitting plot-ready CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace
from functools import reduce
from operator import add

from . import oracle as oracle_mod
from . import sim
from .road_graph import GraphError, grid_doc, load_graph
from .routing import EvRequest, RouteAssignment, Stranded, find_shortest_path

SWEEP_HEADER = "mode,level,ev_count,seed,mean_travel_s,mean_wait_s,med_share,stranded"


class InputError(Exception):
    """A scenario or instance file that cannot be used as given."""


def _atomic_write(path: str, text: str):
    """Write the whole artifact or nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".medsim-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path, doc, **dumps_args):
    """``doc`` as indented JSON: the whole file at ``path``, or stdout without one."""
    text = json.dumps(doc, indent=2, **dumps_args) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _ints(text: str, option: str):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InputError(f"{option} must be comma separated integers, got {text!r}") from None


def _default_seed(value):
    env = os.environ.get("MEDSIM_SEED")
    if value is not None or not env:
        return value
    try:
        return int(env)
    except ValueError:
        raise InputError(f"MEDSIM_SEED must be an integer, got {env!r}") from None


def assignment_to_dict(a: RouteAssignment) -> dict:
    trace = a.energy_trace  # attach energies are derived: reduce() adds left to right, sum() won't
    return {
        "ev": a.ev, "source": a.source, "dest": a.dest,
        "capacity_kwh": a.capacity_kwh, "energy_start_kwh": a.energy_start_kwh,
        "legs": list(a.legs),
        "x_arcs": [list(arc) for arc in a.x_arcs],
        "y_arcs": [list(arc) for arc in a.y_arcs],
        "z_visits": [asdict(v) for v in a.z_visits],
        "q_points": [{"meet_node": p.meet_node, "detach_node": p.detach_node,
                      "leg_index": p.leg_index, "wait_s": p.wait_s,
                      "attach_s": p.attach_s,
                      "segments": [list(arc) for arc in p.segments],
                      "booking_keys": [list(k) for k in p.booking_keys],
                      "gain_kwh": trace[p.leg_index + len(p.segments)] - trace[p.leg_index],
                      "dispensed_kwh": reduce(add, p.induced_per_segment, 0.0)}
                     for p in a.q_points],
        "energy_trace": list(a.energy_trace),
        "total_time_s": a.total_time_s,
        "depart_s": a.depart_s,
    }


def cmd_gen_grid(args) -> int:
    try:
        doc = grid_doc(args.rows, args.cols, args.arc_len, args.speed,
                       scs=_ints(args.scs, "--scs"),
                       med_cycle=_ints(args.med_cycle, "--med-cycle"))
        load_graph(doc, vehicle=sim.DEFAULT_VEHICLE)  # full validation round trip
    except (GraphError, ValueError) as exc:
        print(f"gen-grid: {exc}", file=sys.stderr)
        return 2
    _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_scenario(args) -> sim.Scenario:
    overrides = {}
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "level", None):
        overrides["level"] = args.level
    seed = _default_seed(getattr(args, "seed", None))
    if seed is not None:
        overrides["seed"] = seed
    if getattr(args, "evs", None) is not None:
        overrides["ev_count"] = args.evs
    return _scenario(_read_json(args.scenario), **overrides)


def _scenario(doc: dict | sim.Scenario, **overrides) -> sim.Scenario:
    try:
        if isinstance(doc, sim.Scenario):
            return replace(doc, **overrides)
        return sim.Scenario.from_json(doc, **overrides)
    # a value Scenario or a parameter block rejects, or a key a block does not take
    except (ValueError, TypeError) as exc:
        raise InputError(f"scenario: {exc}") from None


def cmd_route(args) -> int:
    scenario = _load_scenario(args)
    network = sim.load_network(scenario)
    g = network.graph
    infra = sim.build_infrastructure(scenario, g)
    for end in (args.source, args.dest):
        if end not in g.nodes:
            raise GraphError(f"route endpoint {end} is not a graph node")
    capacity = args.capacity if args.capacity is not None else scenario.vehicle.capacity_kwh
    try:
        request = EvRequest("cli", args.source, args.dest, capacity, args.energy)
    except ValueError as exc:
        print(f"route: {exc}", file=sys.stderr)
        return 2
    gate = None if scenario.mode == "SCS_MED" else sim._refuse_med
    try:
        a = find_shortest_path(g, request, infra, now=args.now, gate=gate,
                               caches=network.caches)
        out = {"stranded": False, "assignment": assignment_to_dict(a)}
    except Stranded as exc:
        out = {"stranded": True, "reason": str(exc)}
    _write_json(args.out, out)
    return 0


def cmd_oracle(args) -> int:
    inst = oracle_mod.instance_from_json(_read_json(args.instance))
    sol = oracle_mod.solve_exact(inst)
    out = {
        "feasible": sol.feasible,
        "objective_s": sol.objective_s if sol.feasible else None,
        "explored": sol.explored,
        "assignment": assignment_to_dict(sol.best) if sol.best else None,
    }
    _write_json(args.out, out)
    return 0


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    metrics = sim.run(scenario)
    if metrics.violations:
        print("run: invariant violations detected:", file=sys.stderr)
        for v in metrics.violations[:20]:
            print(f"  {v}", file=sys.stderr)
        return 1
    if args.out_csv:
        _atomic_write(args.out_csv, metrics.to_csv())
    if args.out_json or not args.out_csv:
        _write_json(args.out_json, metrics.aggregates(), sort_keys=True)
    return 0


def _sweep_cell(first: sim.Scenario, overrides: dict) -> dict:
    metrics = sim.run(replace(first, **overrides), keep_assignments=False)
    if metrics.violations:
        raise RuntimeError(
            f"invariant violations in cell {overrides}: {metrics.violations[:3]}")
    return metrics.aggregates()


def cmd_sweep(args) -> int:
    doc = _read_json(args.scenario)
    modes = [m for m in args.modes.split(",") if m]
    levels = [l for l in args.levels.split(",") if l]
    ev_counts = _ints(args.evs, "--evs")
    seeds = _ints(args.seeds, "--seeds")
    if not (modes and levels and ev_counts and seeds):
        print("sweep: modes, levels, evs, and seeds must be nonempty", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"sweep: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    cells = [dict(mode=m, level=l, ev_count=n, seed=s)
             for m in modes for l in levels for n in ev_counts for s in seeds]
    # the first cell's overrides make a scenario that validates, whatever mode,
    # level or count the document holds; cells copy it, reading no file again
    first = _scenario(doc, **cells[0])
    for cell in cells:  # bad input exits 2 here, before any cell runs
        _scenario(first, **cell)
    try:
        if args.jobs > 1:
            # imported here: only a parallel sweep needs the pool's modules
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_sweep_cell, [first] * len(cells), cells))
        else:
            rows = [_sweep_cell(first, cell) for cell in cells]
    except Exception as exc:
        print(f"sweep: aborted, no output written: {exc}", file=sys.stderr)
        return 1
    rows.sort(key=lambda r: (r["mode"], r["level"], r["ev_count"], r["seed"]))
    lines = [SWEEP_HEADER] + [f"{r['mode']},{r['level']},{r['ev_count']},{r['seed']},"
                              f"{r['mean_travel_s']:.6f},{r['mean_wait_s']:.6f},"
                              f"{r['med_share']:.6f},{r['stranded']}" for r in rows]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="medsim",
                                description="EV routing with static and mobile chargers")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-grid", help="write a grid road-graph JSON")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--arc-len", type=float, default=2500.0)
    g.add_argument("--speed", type=float, default=15.0)
    g.add_argument("--scs", default="", help="comma separated station node ids")
    g.add_argument("--med-cycle", default="", help="comma separated cycle node ids")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_grid)

    r = sub.add_parser("route", help="route one EV against a fresh ledger snapshot")
    r.add_argument("--scenario", required=True)
    r.add_argument("--source", type=int, required=True)
    r.add_argument("--dest", type=int, required=True)
    r.add_argument("--energy", type=float, required=True)
    r.add_argument("--capacity", type=float)
    r.add_argument("--mode")
    r.add_argument("--now", type=float, default=0.0)
    r.add_argument("--out")
    r.set_defaults(func=cmd_route)

    o = sub.add_parser("oracle", help="solve a small instance exactly")
    o.add_argument("--instance", required=True)
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)

    u = sub.add_parser("run", help="simulate one scenario")
    u.add_argument("--scenario", required=True)
    u.add_argument("--mode")
    u.add_argument("--level")
    u.add_argument("--seed", type=int)
    u.add_argument("--evs", type=int)
    u.add_argument("--out-csv")
    u.add_argument("--out-json")
    u.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="run a mode/level/count/seed grid")
    s.add_argument("--scenario", required=True)
    s.add_argument("--modes", default="SCS,SCS_MED")
    s.add_argument("--levels", default="L1,L2,L3")
    s.add_argument("--evs", default="10,20,30,40,50,60,70,80,90,100")
    s.add_argument("--seeds", default="0,1,2,3,4")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, sim.CalibrationError, oracle_mod.OracleError, InputError,
            FileNotFoundError) as exc:
        print(f"medsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
