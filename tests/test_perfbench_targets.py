"""Every name perfbench traces is still where its tracer patches it.

``Tracer.install`` raises when a target is missing, which the benchmark's
self-test finds only after it has started; this finds a renamed or moved
name in the tier-1 suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []
