"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand. Imports medsim from the
checkout's ``src/``, builds the workload's inputs from the seed, and then,
depending on ``--mode``:

- ``setup``: stops right there (a set-up sample);
- ``timed``: runs every unit with only the unit timer installed;
- ``traced``: installs the layer wrappers first (see ``tracing.py``).

Prints one JSON object on stdout. ``t_ready``, the instant the inputs are
built, is in CLOCK_MONOTONIC seconds, which all processes of the machine
share, so the parent subtracts its own launch instant from it to get the
set-up time. ``wall_s`` runs from after set-up (and, traced, after the
wrappers are installed) to the end of the last unit and its output, minus
the speed probes run between units; ``setup_scale`` and ``scale`` turn raw
times into reference-speed times (see ``probe.py``). The traced pass runs
no probes between units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src")]


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    import probe
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = workload.build(args.seed, args.size, workdir)
        t_ready = clock()
        gauge = probe.Gauge(clock)
        for _ in range(probe.SETUP_RUNS):
            gauge.run()
        setup_scale = probe.scale(gauge.durations)
        if args.mode == "setup":
            return {"t_ready": t_ready, "setup_scale": setup_scale}
        traced = args.mode == "traced"
        units = workloads.Units(clock, between=None if traced else gauge.between_units)
        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer(clock, units)
            tracer.install()
        spent_before = gauge.spent_s
        t_start = clock()
        text, checks = workload.run(inputs, units)
        t_end = clock()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unit_s = [e - s for s, e in zip(units.starts, units.ends)]
    unit_ref_s = [u * gauge.scale_at((s + e) / 2)
                  for u, s, e in zip(unit_s, units.starts, units.ends)]
    wall_s = t_end - t_start - (gauge.spent_s - spent_before)
    result = {
        "t_ready": t_ready,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        # the pass's scale is its units' time-weighted scale
        "wall_ref_s": wall_s * sum(unit_ref_s) / sum(unit_s) if unit_s else wall_s,
        "unit_s": unit_s,
        "unit_ref_s": unit_ref_s,
        "attempted": len(units.starts),
        "expected": len(inputs.units),
        "failures": units.failures,
        "requests": units.requests,
        "checks": checks,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"], result["layer_info"] = tracing.per_layer_metrics(tracer)
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
