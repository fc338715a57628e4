"""Self-test of the benchmark: tiny passes of every workload, each run three times.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and twice traced with the same seed, and checks that

- the result line has exactly the contract's keys, is correct, and failed
  nothing;
- every metric BENCHMARK.json names is emitted with its unit and a finite
  value, and every end-to-end value is above zero;
- every per-layer count and the output digest repeat exactly across runs.

It also runs the benchmark in a directory holding only BENCHMARK.json and
the benchmark's files, where it must exit non-zero without a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def bench(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(label, proc, wanted, problems):
    if proc.returncode != 0:
        problems.append(f"{label}: exited {proc.returncode}: {proc.stderr[-500:]}")
        return None, None
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']} {record['problems']}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or ("bound" in m and not value > 0):
            problems.append(f"{label}: {m['name']} = {got}")
    return record, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        record, _ = check_result(f"{name} untraced", bench(ROOT, name, 0),
                                 spec["end_to_end"], problems)
        traced = [check_result(f"{name} traced #{k}", bench(ROOT, name, 1),
                               spec["per_layer"], problems) for k in (1, 2)]
        if record is None or any(r is None for r, _ in traced):
            continue
        digests = {record["digest"]} | {r["digest"] for r, _ in traced}
        if len(digests) != 1:
            problems.append(f"{name}: output digests differ: {sorted(digests)}")
        (_, a), (_, b) = traced
        problems += [f"{name}: {c} {a['metrics'][c]['value']} then {b['metrics'][c]['value']}"
                     for c in counts if a["metrics"][c] != b["metrics"][c]]
        print(f"{name}: checked, digest {record['digest'][:16]}", flush=True)

    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without medsim's source the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
