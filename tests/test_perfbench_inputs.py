"""perfbench's grid inputs keep their distance maps breadth-first.

A graph whose arcs all carry one ``ArcAttr`` (``RoadGraph.shared_attr``)
gets its distance maps from a breadth-first search, any other graph from a
heap search. Every map of paired-sweep, random-grids and big-grid, and those
of oracle-small's lines and grids, are breadth-first; oracle-small's rings,
whose arcs differ, take the heap search. This builds each workload's tiny
inputs as the benchmark does and checks each graph's side of that split.
"""

import importlib
import json
from pathlib import Path

import pytest

from medsim import oracle, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", ["paired-sweep", "random-grids", "big-grid"])
def test_every_scenario_graph_shares_one_arc_attr(workloads, name, tmp_path):
    inputs = workloads[name].build(0, "tiny", str(tmp_path))
    if name == "paired-sweep":  # the one scenario file its sweep reads
        argv = inputs.extra["argv"]
        docs = [json.loads(Path(argv[argv.index("--scenario") + 1]).read_text())]
    else:
        docs = inputs.units
    assert docs
    for doc in docs:
        assert sim.network_for(sim.Scenario.from_json(doc)).graph.shared_attr is not None


def test_oracle_lines_and_grids_share_one_arc_attr_and_rings_do_not(workloads, tmp_path):
    kinds = set()
    for doc in workloads["oracle-small"].build(0, "tiny", str(tmp_path)).units:
        g = oracle.instance_from_json(doc).graph
        # a ring carries the mobile charger's cycle; a grid has 12 nodes, a line 5-8
        kind = "ring" if g.med_points else "grid" if len(g.nodes) == 12 else "line"
        assert (g.shared_attr is None) == (kind == "ring"), kind
        kinds.add(kind)
    assert kinds == {"line", "grid", "ring"}
