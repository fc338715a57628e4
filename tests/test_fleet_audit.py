"""A run's plans replayed against its charger ledgers, and relations between runs.

``fleet_audit`` (in ``conftest.py``) checks every served EV's attaches
against the bookings and the charger's schedule, and each cycle pass's
dispensed energy against the charger's battery. The metamorphic relations
say how a run's CSV must move, or stay, when one input changes (Chen et al.
1998, "Metamorphic testing: a new approach for generating next test cases").
"""

import math
from dataclasses import replace
from operator import eq

import pytest

from medsim import sim
from medsim.sim import MedSpec, default_scenario
from tests.conftest import fleet_audit
from tests.test_acceptance import random_scenario

# criterion 1's scenarios whose CSV at the default 200 kWh battery differed
# from the one with an infinite battery when one energy counter, refilled
# only at EV arrivals, ran across passes: 104 EVs stranded only for that
BUDGET_SCENARIOS = (153, 203, 251, 282, 392, 407, 442, 545, 553, 654, 674, 706, 947, 975)


def default_runs(modes=sim.MODES, **overrides):
    """The default grid's 100-EV scenarios, L1-L3 and seeds 0-4, in ``modes``."""
    return [default_scenario(mode=mode, level=level, ev_count=100, seed=seed, **overrides)
            for mode in modes for level in ("L1", "L2", "L3") for seed in range(5)]


def budget_scenarios():
    return [random_scenario(seed) for seed in BUDGET_SCENARIOS]


AUDITED = {
    "default": default_runs,
    "criterion-1-budget": budget_scenarios,
    "battery-2": lambda: default_runs(("SCS_MED",), meds=[MedSpec(battery_kwh=2.0)]),
    "battery-4": lambda: default_runs(("SCS_MED",), meds=[MedSpec(battery_kwh=4.0)]),
    "start-1800": lambda: default_runs(("SCS_MED",), meds=[MedSpec(start_s=1800.0)]),
    "start-3000": lambda: default_runs(("SCS_MED",), meds=[MedSpec(start_s=3000.0)]),
}


@pytest.mark.parametrize("variant", AUDITED)
def test_fleet_replay_audit(variant):
    attaches = 0
    for scenario in AUDITED[variant]():
        metrics = sim.run(scenario)
        problems = fleet_audit(sim.network_for(scenario).graph, metrics)
        assert problems == [], f"{scenario.mode} {scenario.level} seed {scenario.seed}"
        attaches += sum(len(a.q_points) for a in metrics.assignments if a is not None)
    assert attaches > 100


def test_the_audit_finds_a_drained_pass_and_an_early_meet():
    scenario = default_scenario(level="L3", ev_count=100, meds=[MedSpec(battery_kwh=4.0)])
    metrics = sim.run(scenario)
    g = sim.network_for(scenario).graph
    med = metrics.infrastructure.med_units[0]
    med.battery_kwh = 1.0
    assert any("more than the 1.0 kWh battery" in p for p in fleet_audit(g, metrics))
    med.battery_kwh, med.start_s = 4.0, 1.0
    assert any("the charger is there at" in p for p in fleet_audit(g, metrics))
    med.start_s = 0.0
    med.bookings.pop()
    assert any("no booking holds the keys" in p for p in fleet_audit(g, metrics))


def one_pass_fits(scenario) -> bool:
    """No charger of the scenario induces more than its battery in one whole pass."""
    infra = sim.build_infrastructure(scenario, sim.network_for(scenario).graph)
    return all(math.fsum(seg.induced_kwh for seg in med.segments) <= med.battery_kwh
               for med in infra.med_units)


def within_battery_runs():
    """The default runs and the budget scenarios, each checked to fit a pass in its battery."""
    scenarios = default_runs() + budget_scenarios()
    assert all(map(one_pass_fits, scenarios))
    return scenarios


def unbounded_battery(scenario):
    return replace(scenario, meds=[replace(m, battery_kwh=math.inf) for m in scenario.meds])


PENALTY_S = 1234.5


def only_stranded_rows_move(csv, follow):
    """The follow-up CSV differs only in the travel time of stranded rows, now the penalty."""
    rows, moved = csv.splitlines(), follow.splitlines()
    if len(rows) != len(moved):
        return False
    for row, other in zip(rows, moved):
        cols, others = row.split(","), other.split(",")
        if cols[-1] == "1":  # stranded: travel_s is the penalty
            cols[8] = f"{PENALTY_S:.6f}"
        if cols != others:
            return False
    return True


@pytest.mark.parametrize("sources,follow_up,relation", [
    pytest.param(within_battery_runs, unbounded_battery, eq,
                 id="a-a-pass-within-the-battery-never-binds"),
    pytest.param(lambda: default_runs(("SCS",), block_prob=1.0),
                 lambda sc: replace(sc, mode="SCS_MED"), eq, id="b-no-comms-no-mode-gap"),
    pytest.param(lambda: default_runs(("SCS",)),
                 lambda sc: replace(sc, meds=[MedSpec(1.0, 5.0, 3000.0)]), eq,
                 id="c-scs-mode-reads-no-med-spec"),
    pytest.param(default_runs, lambda sc: replace(sc, stranded_penalty_s=PENALTY_S),
                 only_stranded_rows_move, id="d-penalty-moves-only-stranded-rows"),
])
def test_metamorphic_relation(sources, follow_up, relation):
    scenarios = sources()
    assert len(scenarios) >= 15
    for scenario in scenarios:
        csv = sim.run(scenario, keep_assignments=False).to_csv()
        assert relation(csv, sim.run(follow_up(scenario), keep_assignments=False).to_csv()), \
            f"{scenario.mode} {scenario.level} seed {scenario.seed}"
