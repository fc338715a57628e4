"""The medsim benchmark: one workload, several fresh-interpreter passes, checked.

    python3 perfbench/run.py --workload paired-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ``BENCHMARK.json`` there names the
workloads and the metrics. Each pass is a closed loop over the workload's
units (one scenario run, or one oracle instance, at a time) in a new
``python`` process, as ``medsim sweep`` or ``medsim run`` would be, so no
cache outlives a pass. Passes repeat while the next one fits in
``--seconds`` (at least three).

``--trace 0`` reports the end-to-end metrics: medians over the passes, the
per-unit latencies pooled over them, and set-up time as the median over the
passes plus as many set-up-only launches. The tail percentile is chosen
from the units of one pass, so it does not depend on how many passes fit.
Times are scaled to a reference host speed measured alongside them
(``probe.py``); the record line keeps the raw medians.
``--trace 1`` runs untraced passes for part of ``--seconds`` and then one
traced pass (``tracing.py``), and reports the per-layer metrics plus the
tracing overhead.

Every pass is checked: all units attempted, none failed (an exception other
than the model's ``Stranded``, an invariant violation, or an oracle
mismatch), identical output digests across passes, and in the traced pass
every layer the workload must reach actually reached. The last stdout line
is the result JSON; the line before it records the seed, machine, commit,
output digest and sample counts. Exits 2 without a result when the checkout
holds no medsim source, 1 when a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from tails import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PASS_TIMEOUT_S = 120

MIN_PASSES = 3
TRACED_SLOWDOWN = 1.8   # a traced pass takes up to this many untraced ones

SIM_LAYERS = ("road_graph.load_graph.calls", "energy.segment_energy.calls",
              "road_graph.arc.calls", "routing.dijkstra.runs",
              "routing.path_cache.path_calls", "routing.check_assignment.calls",
              "routing.find_shortest_path.calls", "routing.find_best_energy_point.calls",
              "charging.scs_book.attempts", "charging.med_book.attempts",
              "charging.med_waiting.self_s", "sim.generate_population.self_s",
              "sim.run.self_s")
# per-layer metrics that must be above zero in a workload's traced pass
ACTIVE = {
    "paired-sweep": SIM_LAYERS + ("cli.sweep.self_s",),
    "random-grids": SIM_LAYERS,
    "big-grid": SIM_LAYERS,
    "oracle-small": ("road_graph.arc.calls", "routing.dijkstra.runs",
                     "routing.path_cache.path_calls", "routing.find_shortest_path.calls",
                     "routing.find_best_energy_point.calls", "oracle.solve_exact.self_s",
                     "oracle.verify.self_s", "oracle.explored"),
}


class PassCrashed(RuntimeError):
    pass


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(workload, seed, mode, size):
    """Run one child pass; returns its JSON with ``setup_s`` added."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--size", size]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = clock()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassCrashed(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["raw_setup_s"] = out["t_ready"] - t0
    out["setup_s"] = out["raw_setup_s"] * out["setup_scale"]
    return out


def git_commit():
    """The checkout's commit from .git, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def check_pass(workload, out, problems):
    if out["attempted"] != out["expected"]:
        problems.append(f"{out['attempted']} of {out['expected']} units attempted")
    problems += [f"unit {uid} failed: {why}" for uid, why in out["failures"]]
    problems += out["checks"]
    if "layers" in out:
        problems += [f"traced pass never reached {name}"
                     for name in ACTIVE[workload] if not out["layers"][name] > 0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few units per pass, for the self-test")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "medsim", "__init__.py")):
        print(f"perfbench: no medsim source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = clock() + args.seconds
    setups, passes = [], []
    try:
        launch(args.workload, args.seed, "setup", args.size)  # warm-up: bytecode, page cache
        # untraced passes while the next one (and, traced, the slower traced
        # pass after it) still fits in --seconds; at least MIN_PASSES, or one
        while True:
            t0 = clock()
            passes.append(launch(args.workload, args.seed, "timed", args.size))
            setups.append(passes[-1])
            if not args.trace:
                setups.append(launch(args.workload, args.seed, "setup", args.size))
            need = (clock() - t0) * (1 + TRACED_SLOWDOWN * args.trace)
            if len(passes) >= (1 if args.trace else MIN_PASSES) and clock() + need > deadline:
                break
        traced = launch(args.workload, args.seed, "traced", args.size) if args.trace else None
    except (PassCrashed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = []
    every = passes + ([traced] if traced else [])
    for out in every:
        check_pass(args.workload, out, problems)
    digests = sorted({out["digest"] for out in every})
    if len(digests) > 1:
        problems.append(f"passes disagree on the output digest: {digests}")

    raw_wall = statistics.median(o["wall_s"] for o in passes)
    wall = statistics.median(o["wall_ref_s"] for o in passes)
    unit_s = [u for o in passes for u in o["unit_ref_s"]]
    pct, unit_tail = tail(unit_s, distinct=passes[0]["expected"])
    if args.trace:
        # the traced pass runs no kernel between units: scale it by its set-up runs
        overhead = traced["wall_s"] * traced["setup_scale"] / wall
        values = dict(traced["layers"], **{"trace.overhead_ratio": overhead})
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(o["setup_s"] for o in setups),
            "wall_s": wall,
            "requests_per_s": statistics.median(o["requests"] / o["wall_ref_s"] for o in passes),
            "unit_p50_ms": statistics.median(unit_s) * 1e3,
            "unit_tail_ms": unit_tail * 1e3,
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in passes),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
        "digest": digests[0], "passes": len(passes), "setup_samples": len(setups),
        "raw_setup_s": statistics.median(o["raw_setup_s"] for o in setups),
        "raw_wall_s": raw_wall, "pass_scales": [round(o["wall_ref_s"] / o["wall_s"], 4) for o in passes],
        "pass_wall_s": [round(o["wall_s"], 4) for o in passes],
        "unit_samples": len(unit_s), "unit_tail_percentile": pct,
        "problems": problems[:20],
    }
    if traced:
        record.update(traced["layer_info"], traced_wall_s=traced["wall_s"])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o["attempted"] for o in every),
        "failed": sum(len(o["failures"]) for o in every),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
