"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager

import pytest

from medsim.cli import main as cli_main
from medsim.comms import RadioParams, transmission_range
from medsim.energy import InductionParams, induced_energy, rolling_force, air_force
from medsim.oracle import solve_exact, verify
from medsim.road_graph import grid_doc
from medsim.routing import PathCache, Stranded, find_shortest_path
from medsim.sim import DEFAULT_VEHICLE, MedSpec, Scenario, default_scenario, run
from tests.conftest import random_oracle_instance, route_feasible


@contextmanager
def criterion(number, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL "
              f"[{time.perf_counter() - t0:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS [{time.perf_counter() - t0:.1f}s]")


# -- criterion 1: feasibility suite -------------------------------------------


def _energy_per_meter(speed_mps: float) -> float:
    vp = DEFAULT_VEHICLE
    return vp.efficiency * (rolling_force(vp) + air_force(vp, speed_mps)) / 3.6e6


def random_scenario(seed: int) -> Scenario:
    rng = random.Random(10_000 + seed)
    rows, cols = rng.randint(2, 10), rng.randint(2, 10)
    speed = rng.uniform(9.0, 15.0)
    diameter = rows + cols - 2
    # scale arcs so the grid diameter costs 1.8-3.9 kWh: trips can then be
    # anxious (need > 1 kWh) at every level
    arc_len = rng.uniform(1.2, 2.6) * 1.5 / (_energy_per_meter(speed) * diameter)

    with_med = (rows, cols) != (2, 2) and rng.random() < 0.9
    med_cycle = []
    if with_med:
        r = rng.randint(0, rows - 2)
        c = rng.randint(0, cols - 2)
        n = r * cols + c
        med_cycle = [n, n + 1, n + 1 + cols, n + cols]
    with_scs = rng.random() < 0.9 or not with_med
    scs = []
    if with_scs:
        choices = [x for x in range(rows * cols) if x not in med_cycle]
        scs = [rng.choice(choices)]

    doc = grid_doc(rows, cols, arc_len_m=arc_len, speed_mps=speed,
                   scs=scs, med_cycle=med_cycle)
    return Scenario(
        graph=doc,
        mode=rng.choice(["SCS", "SCS_MED"]),
        ev_count=rng.randint(0, 100),
        level=rng.choice(["L1", "L2", "L3"]),
        seed=seed,
        block_prob=rng.choice([0.0, 0.05, 0.1]),
        scs=[(node, 19.2) for node in scs],
        meds=[MedSpec()] if med_cycle else [],
    )


def test_criterion_1_feasibility_suite():
    with criterion(1, "feasibility over 1000 random scenarios"):
        t0 = time.perf_counter()
        total_assignments = 0
        for seed in range(1000):
            metrics = run(random_scenario(seed), keep_assignments=False)
            assert metrics.violations == [], \
                f"scenario {seed}: {metrics.violations[:5]}"
            total_assignments += sum(1 for r in metrics.rows if not r.stranded)
        elapsed = time.perf_counter() - t0
        assert total_assignments > 10_000  # the suite actually exercised routes
        assert elapsed < 120.0, f"feasibility suite took {elapsed:.1f}s"


# -- criterion 2: oracle equivalence --------------------------------------------


def test_criterion_2_oracle_equivalence():
    with criterion(2, "router vs exact oracle on 200 instances"):
        t0 = time.perf_counter()
        exact_matches = direct_cases = solved = heuristic_misses = 0
        for seed in range(200):
            inst = random_oracle_instance(seed)
            sol = solve_exact(inst)
            caches = PathCache(inst.graph)
            req = inst.request
            direct_ok = route_feasible(
                inst.graph, caches.path(req.source, req.dest, "time"),
                req.energy_kwh)
            try:
                a = find_shortest_path(inst.graph, req,
                                       inst.frozen_infrastructure(), caches=caches)
            except Stranded:
                # heuristic incompleteness is allowed, but never on feasible
                # direct routes
                assert not direct_ok, f"seed {seed}: stranded on a feasible direct"
                heuristic_misses += sol.feasible
                continue
            solved += 1
            assert verify(inst, a) == "ok", f"seed {seed}: {verify(inst, a)}"
            assert sol.feasible, f"seed {seed}: router beat an 'infeasible' oracle"
            assert a.total_time_s >= sol.objective_s - 1e-9, \
                f"seed {seed}: router {a.total_time_s} below optimum {sol.objective_s}"
            if direct_ok:
                direct_cases += 1
                assert abs(a.total_time_s - sol.objective_s) <= 1e-9, \
                    f"seed {seed}: direct-feasible but router != oracle"
            if abs(a.total_time_s - sol.objective_s) <= 1e-9:
                exact_matches += 1
        elapsed = time.perf_counter() - t0
        assert solved >= 100 and direct_cases >= 20
        assert elapsed < 600.0, f"oracle suite took {elapsed:.1f}s"
        print(f"  solved {solved}/200, optimal on {exact_matches}, "
              f"{direct_cases} feasible directs, "
              f"{heuristic_misses} stranded-but-feasible")


# -- criteria 3 and 4: trend reproduction ----------------------------------------


@pytest.fixture(scope="module")
def paired_sweep():
    """mean travel and MED share per (mode, level, ev_count, seed) cell."""
    cells = {}
    for mode in ("SCS", "SCS_MED"):
        for level in ("L1", "L2", "L3"):
            for ev_count in range(10, 101, 10):
                for seed in range(5):
                    m = run(default_scenario(mode=mode, level=level,
                                             ev_count=ev_count, seed=seed),
                            keep_assignments=False)
                    assert m.violations == []
                    cells[(mode, level, ev_count, seed)] = (
                        m.mean_travel_s(), m.med_share())
    return cells


def test_criterion_3_travel_time_trends(paired_sweep):
    with criterion(3, "paired travel-time trends"):
        for (mode, level, n, seed), (travel, _) in paired_sweep.items():
            if mode != "SCS":
                continue
            both = paired_sweep[("SCS_MED", level, n, seed)][0]
            assert both <= travel + 1e-9, \
                f"cell (level={level}, evs={n}, seed={seed}): " \
                f"SCS+MED {both:.1f}s > SCS {travel:.1f}s"

        def level_ratio(level):
            scs = [v[0] for k, v in paired_sweep.items()
                   if k[0] == "SCS" and k[1] == level]
            both = [v[0] for k, v in paired_sweep.items()
                    if k[0] == "SCS_MED" and k[1] == level]
            return (sum(scs) / len(scs)) / (sum(both) / len(both))

        r1, r3 = level_ratio("L1"), level_ratio("L3")
        assert r3 > r1 > 1.0, f"ratios not ordered: L1 {r1:.2f}, L3 {r3:.2f}"
        print(f"  travel-time ratio SCS/(SCS+MED): L1 {r1:.2f}, "
              f"L2 {level_ratio('L2'):.2f}, L3 {r3:.2f}")


def test_criterion_4_selection_share_trend(paired_sweep):
    with criterion(4, "MED selection share rises with anxiety"):
        def level_share(level):
            shares = [v[1] for k, v in paired_sweep.items()
                      if k[0] == "SCS_MED" and k[1] == level]
            return sum(shares) / len(shares)

        s1, s3 = level_share("L1"), level_share("L3")
        assert s3 > s1, f"share L3 {s3:.3f} not above L1 {s1:.3f}"
        print(f"  MED share: L1 {s1:.3f}, L2 {level_share('L2'):.3f}, L3 {s3:.3f}")


# -- criterion 5: energy arithmetic anchors ---------------------------------------


def test_criterion_5_energy_anchors():
    with criterion(5, "induction arithmetic anchors"):
        ten_min_50 = induced_energy(600.0, InductionParams(1.0, 50.0))
        assert abs(ten_min_50 - 25.0 / 3.0) < 1e-9
        miles = induced_energy(600.0, InductionParams(0.96, 50.0)) * 100.0 / 35.0
        assert abs(miles - 22.85) < 0.05
        ten_min_20 = induced_energy(600.0, InductionParams(1.0, 20.0))
        assert abs(ten_min_20 - 10.0 / 3.0) < 1e-9
        assert 3.0 <= ten_min_20 <= 8.0


# -- criterion 6: radio calibration ------------------------------------------------


def test_criterion_6_radio_calibration():
    with criterion(6, "radio range calibration"):
        assert transmission_range(RadioParams(pth_dbm=-69.0)) == pytest.approx(130.0, abs=1e-9)
        assert transmission_range(RadioParams(pth_dbm=-85.0)) == pytest.approx(300.0, abs=1e-9)
        samples = [-85.0 + 16.0 * k / 99 for k in range(100)]
        ranges = [transmission_range(RadioParams(pth_dbm=p)) for p in samples]
        assert all(a >= b - 1e-12 for a, b in zip(ranges, ranges[1:])), \
            "range not monotone in sensitivity"
        assert all(130.0 - 1e-9 <= r <= 300.0 + 1e-9 for r in ranges)


# -- criterion 7: determinism --------------------------------------------------------


def test_criterion_7_byte_identical_reruns(tmp_path):
    with criterion(7, "seeded runs are byte identical"):
        import json
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            default_scenario(ev_count=60, seed=5, level="L3").to_json()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", "--scenario", str(scenario), "--out-csv", str(a)]) == 0
        assert cli_main(["run", "--scenario", str(scenario), "--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
