"""Every name perfbench traces is still where its tracer patches it, and its hooks still
read what those names return.

``Tracer.install`` raises when a target is missing, and a hook that reads a
result's field fails on a result without it; the benchmark's self-test
finds either only after it has started. These tests find them in the
tier-1 suite.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []


# paired-sweep books at stations and mobile chargers; big-grid maps long grid paths from
# their sources; oracle-small solves and verifies
@pytest.mark.parametrize("workload", ["paired-sweep", "big-grid", "oracle-small"])
def test_a_tiny_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1", "--size", "tiny"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-500:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout.splitlines()[-2][-500:]
