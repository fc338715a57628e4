"""Mutated input documents exit 0 or 2 with at most one line on stderr, never a traceback.

A fuzz property (Miller, Fredriksen & So 1990), written QuickCheck-style
(Claessen & Hughes 2000): one- or two-value mutants of a 4x4-grid scenario
and of a 7-node ring instance run in process through ``run``, ``route``, a
tiny ``sweep`` and ``oracle``. A mutant replaces, deletes or inserts a value
anywhere in the document, drawn from JSON's edge cases; Python's ``json``
writes and reads NaN and Infinity, so those are among them. Each command
runs under a ``signal.alarm`` limit, so a mutant that hangs fails too.
"""

import contextlib
import io
import json
import math
import signal

import pytest
from hypothesis import given, settings, strategies as st

from medsim import sim
from medsim.cli import main
from medsim.road_graph import grid_doc

VALUES = [None, [], {}, "x", -1, 0, 1e308, math.nan, math.inf, 10 ** 30]
SECONDS = 10  # per command; a clean one takes milliseconds

SCENARIO = sim.Scenario(graph=grid_doc(4, 4, arc_len_m=5000.0, scs=[5], med_cycle=[9, 10, 14, 13]),
                        ev_count=6, level="L2", scs=[(5, 19.2)], meds=[sim.MedSpec()]).to_json()
RING = [{"i": i, "j": (i + d) % 7, "length_m": 1000.0, "speed_mps": 10.0, "energy_kwh": 1.0}
        for i in range(7) for d in (1, 6)]
del RING[0]["energy_kwh"]  # priced for the vehicle
INSTANCE = {
    "graph": {"nodes": list(range(7)), "arcs": RING, "scs": [2], "med_cycle": [4, 5]},
    "visit_limit": 2,
    "vehicle": dict(vars(sim.DEFAULT_VEHICLE)),
    "request": {"ev": "t", "source": 0, "dest": 3, "capacity_kwh": 10.0, "energy_kwh": 2.0},
    "scs": [{"node": 2, "rate_kw": 19.2, "wait_s": 60.0}],
    "med": {"c_ind": 0.75, "p_ind_kw": 40.0, "battery_kwh": 200.0, "wait_s": {"4": 30.0}},
}


def paths(doc, prefix=()):
    """The path of every value below the top of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def has(node, key) -> bool:
    """Whether ``node[key]`` is there: a key of an object or an index of a list."""
    if isinstance(node, list):
        return isinstance(key, int) and key < len(node)
    return isinstance(node, dict) and key in node


def mutate(doc, edits):
    """A copy of ``doc`` with each ``(path, action, value)`` edit made where its path still is."""
    doc = json.loads(json.dumps(doc))
    for path, action, value in edits:
        parent = doc
        for key in path[:-1]:
            if not has(parent, key):
                break
            parent = parent[key]
        else:
            key = path[-1]
            if not has(parent, key):
                continue
            if action == "replace":
                parent[key] = value
            elif action == "delete":
                del parent[key]
            elif isinstance(parent, list):
                parent.insert(key, value)
            else:
                parent["x"] = value
    return doc


def mutants(doc):
    # half the edits land on a value near the top, not among the many arcs
    every = list(paths(doc))
    path = st.sampled_from(every) | st.sampled_from([p for p in every if len(p) < 3])
    edit = st.tuples(path, st.sampled_from(("replace", "delete", "insert")),
                     st.sampled_from(VALUES))
    return st.lists(edit, min_size=1, max_size=2).map(lambda edits: mutate(doc, edits))


def expire(signum, frame):
    raise TimeoutError(f"no exit within {SECONDS} s")


def exits(argv):
    """``main(argv)``'s exit status and stderr, under the time limit."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, err.getvalue()


# each command's argv for a document at path p, writing to out
COMMANDS = {
    "scenario": [
        lambda p, out: ["run", "--scenario", str(p), "--out-json", str(out)],
        lambda p, out: ["route", "--scenario", str(p), "--source", "0", "--dest", "15",
                        "--energy", "1.5", "--out", str(out)],
        lambda p, out: ["sweep", "--scenario", str(p), "--levels", "L1", "--evs", "2",
                        "--seeds", "0", "--out", str(out)],
    ],
    "instance": [lambda p, out: ["oracle", "--instance", str(p), "--out", str(out)]],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def outcomes(workdir, doc, commands):
    path = workdir / "doc.json"
    path.write_text(json.dumps(doc))
    return [(argv(path, "")[0], *exits(argv(path, workdir / "out"))) for argv in commands]


@pytest.mark.parametrize("kind,doc", [("scenario", SCENARIO), ("instance", INSTANCE)])
def test_the_documents_run_unmutated(workdir, kind, doc):
    assert all(rc == 0 and err == "" for _, rc, err in outcomes(workdir, doc, COMMANDS[kind]))


@settings(max_examples=300, deadline=None)
@given(doc=mutants(SCENARIO))
def test_scenario_mutants_exit_0_or_2(workdir, doc):
    for command, rc, err in outcomes(workdir, doc, COMMANDS["scenario"]):
        assert rc in (0, 2) and err.count("\n") <= 1, (command, rc, err)


@settings(max_examples=300, deadline=None)
@given(doc=mutants(INSTANCE))
def test_instance_mutants_exit_0_or_2(workdir, doc):
    for command, rc, err in outcomes(workdir, doc, COMMANDS["instance"]):
        assert rc in (0, 2) and err.count("\n") <= 1, (command, rc, err)
