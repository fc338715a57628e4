"""Seeded fleet simulation: EV arrivals, anxiety levels, and charging modes.

A run spawns EVs at entry points over a horizon, routes each one at its
arrival instant against the live booking ledgers, and collects per-EV and
aggregate metrics. Time is continuous; the only event is an EV arrival,
processed in time order, so a run is fully deterministic for a given seed.
A mobile charger's energy budget is per cycle pass and kept in its ledger
(:class:`~medsim.charging.MedState`), not on a clock.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .charging import STATION_RATE_KW, Infrastructure, MedState, ScsState
from .energy import InductionParams, VehicleParams
from .road_graph import (AS_IS, INTEGER, NODE_ID, NODE_IDS, NUMBER, OBJECT, OBJECTS, STRING,
                         VISIT_LIMIT_DEFAULT, GraphError, GraphSpec, RoadGraph, check_visit_limit,
                         grid_doc, load_graph, or_null, parse_graph, read_block, read_entries,
                         read_params)
from .routing import (INFINITE, EvRequest, PathCache, Stranded, check_assignment,
                      find_shortest_path, trip_energy)

LEVEL_TARGETS = {"L1": 0.20, "L2": 0.60, "L3": 0.95}
MODES = ("SCS", "SCS_MED")
ENERGY_MIN_KWH = 1.0
ENERGY_MAX_KWH = 6.0
# the kind of each key a scenario block may hold; a missing key keeps the
# default, and parse_graph reads the graph
_SCENARIO_KEYS = {"graph": AS_IS, "graph_path": AS_IS, "mode": STRING, "ev_count": INTEGER,
                  "level": STRING, "seed": INTEGER, "horizon_s": NUMBER,
                  "stranded_penalty_s": or_null(NUMBER), "vehicle": OBJECT, "induction": OBJECT,
                  "radio": OBJECT, "infra": OBJECT, "visit_limit": INTEGER,
                  "entries": or_null(NODE_IDS)}
# the radio keys older documents carry are taken and never read
_RADIO_KEYS = {"block_prob": NUMBER, **dict.fromkeys(
    ("beacon_period_s", "ptx_dbm", "f_ghz", "pth_dbm", "sinr_db"))}
_INFRA_KEYS = {"scs": OBJECTS, "med": OBJECTS}
_SCS_KEYS = {"node": NODE_ID, "rate_kw": NUMBER}
_MED_KEYS = {"battery_kwh": NUMBER, "p_ind_kw": or_null(NUMBER), "start_s": NUMBER}


class CalibrationError(Exception):
    """The graph cannot realize the requested anxiety level."""


DEFAULT_VEHICLE = VehicleParams(mass_kg=1800.0, mu=0.013, drag_c=0.52, area_m2=2.2,
                                air_density=1.2, efficiency=0.75, capacity_kwh=50.0)
DEFAULT_INDUCTION = InductionParams(c_ind=0.75, p_ind_kw=40.0)


# MedState.waiting adds cycles to the time since start_s: from within 1e9 s a double still
# resolves 1e-6 s, but from 1e20 s it steps past a cycle and from 1e308 s a cycle adds nothing
MED_START_MAX_S = 1e9


@dataclass
class MedSpec:
    battery_kwh: float = 200.0      # per cycle pass; infinite: never runs dry
    p_ind_kw: float | None = None   # falls back to the induction block
    start_s: float = 0.0

    def __post_init__(self):
        if not self.battery_kwh >= 0.0:
            raise ValueError(f"med battery_kwh must be nonnegative, got {self.battery_kwh}")
        if not math.isfinite(self.start_s):
            raise ValueError(f"med start_s must be finite, got {self.start_s}")
        if abs(self.start_s) > MED_START_MAX_S:
            raise ValueError(f"med start_s must be within {MED_START_MAX_S:g}, got {self.start_s}")
        if self.p_ind_kw is not None and not 0.0 < self.p_ind_kw < INFINITE:
            raise ValueError(f"med p_ind_kw must be positive and finite, got {self.p_ind_kw}")


# a run books arrival times plus drive, wait and charge times: up to 1e9 s (32 years) a double
# resolves 2.4e-7 s of them, but at 1e300 s they vanish and a booking ends where it starts
HORIZON_MAX_S = 1e9
# at 10 MW, beyond any real charger, a station still takes 3.6e-4 s for 1 Wh, over a
# thousand steps of a time below HORIZON_MAX_S, so no booking vanishes against its start
STATION_RATE_MAX_KW = 1e4


@dataclass
class Scenario:
    """Everything one simulation run depends on, JSON round-trippable.

    ``graph``, a document or a path to one, is parsed on construction into a
    :class:`~medsim.road_graph.GraphSpec`, out of reach of edits to the document.
    Every input check runs here and on ``replace``, charger and entry ids included.
    """

    graph: GraphSpec
    mode: str = "SCS_MED"
    ev_count: int = 50
    level: str = "L1"
    seed: int = 0
    horizon_s: float = 3600.0
    stranded_penalty_s: float | None = None
    vehicle: VehicleParams = DEFAULT_VEHICLE
    induction: InductionParams = DEFAULT_INDUCTION
    block_prob: float = 0.05
    scs: list = field(default_factory=list)      # (node, rate_kw) pairs
    meds: list = field(default_factory=list)     # MedSpec per mobile charger
    visit_limit: int = VISIT_LIMIT_DEFAULT
    entries: list | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.level not in LEVEL_TARGETS:
            raise ValueError(f"level must be one of {tuple(LEVEL_TARGETS)}")
        if not 0 <= self.ev_count <= 100:
            raise ValueError("ev_count must lie in [0, 100]")
        if self.vehicle.capacity_kwh < ENERGY_MAX_KWH:
            raise ValueError("battery capacity must cover the initial-energy band")
        if not 0.0 <= self.block_prob <= 1.0:
            raise ValueError("block_prob must be a probability")
        for name in ("horizon_s", "stranded_penalty_s"):  # chained, so NaN fails too
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < INFINITE:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        if self.horizon_s > HORIZON_MAX_S:
            raise ValueError(f"horizon_s must be at most {HORIZON_MAX_S:g}, got {self.horizon_s}")
        if self.stranded_penalty_s is None:
            self.stranded_penalty_s = 10.0 * self.horizon_s
        check_visit_limit(self.visit_limit)
        if not isinstance(self.graph, GraphSpec):
            self.graph = parse_graph(self.graph)
        self.graph.priced(self.vehicle)  # every arc costs the vehicle a finite energy
        for node, rate in self.scs:
            if not rate > 0.0:
                raise ValueError(f"station {node} rate_kw must be positive, got {rate}")
            if rate > STATION_RATE_MAX_KW:
                raise ValueError(f"station {node} rate_kw must be at most "
                                 f"{STATION_RATE_MAX_KW:g}, got {rate}")
            if node not in self.graph.scs:
                raise GraphError(f"station {node} is not a station of the graph")
        for node in self.entries or ():
            if node not in self.graph.nodes:
                raise GraphError(f"entry point {node} is not a node of the graph")
        if self.meds and not self.graph.med_cycle:
            raise GraphError("a mobile charger needs the graph's med_cycle")

    def to_json(self) -> dict:
        doc = {
            "graph": self.graph.to_json(), "mode": self.mode, "ev_count": self.ev_count,
            "level": self.level, "seed": self.seed, "horizon_s": self.horizon_s,
            "stranded_penalty_s": self.stranded_penalty_s,
            "vehicle": vars(self.vehicle).copy(),
            "induction": vars(self.induction).copy(),
            "radio": {"block_prob": self.block_prob},
            "infra": {
                "scs": [{"node": n, "rate_kw": r} for n, r in self.scs],
                "med": [vars(m).copy() for m in self.meds],
            },
            "visit_limit": self.visit_limit,
        }
        if self.entries is not None:
            doc["entries"] = list(self.entries)
        return doc

    @classmethod
    def from_json(cls, doc: dict, **overrides) -> "Scenario":
        kwargs = read_block(doc, "scenario", _SCENARIO_KEYS)
        kwargs["graph"] = kwargs.pop("graph", kwargs.pop("graph_path", None))  # its older name
        if kwargs["graph"] is None:
            raise GraphError("scenario lacks required key 'graph'")
        for name, params in (("vehicle", VehicleParams), ("induction", InductionParams)):
            if name in kwargs:
                kwargs[name] = read_params(kwargs[name], name, params)
        kwargs |= read_block(kwargs.pop("radio", {}), "radio", _RADIO_KEYS, closed=True)
        infra = read_block(kwargs.pop("infra", {}), "infra", _INFRA_KEYS)
        kwargs["scs"] = [(s["node"], s.get("rate_kw", STATION_RATE_KW)) for s in read_entries(
            infra.get("scs", ()), "infra scs", _SCS_KEYS, ("node",))]
        kwargs["meds"] = [MedSpec(**m) for m in read_entries(
            infra.get("med", ()), "infra med", _MED_KEYS)]
        return cls(**(kwargs | overrides))


def default_scenario(**overrides) -> Scenario:
    """The desk-scale standard: 10x10 grid, one station, one mobile charger."""
    graph = grid_doc(10, 10, scs=[22], med_cycle=[44, 45, 55, 54])
    base = dict(graph=graph, scs=[(22, STATION_RATE_KW)], meds=[MedSpec()])
    base.update(overrides)
    return Scenario(**base)


# -- population ----------------------------------------------------------------


@dataclass
class EvRecord:
    """One EV: its spawn, then the outcome :func:`run` sets once it is routed."""

    ev: str
    t_arrival_s: float
    source: int
    dest: int
    energy_kwh: float
    anxious: bool
    excluded: bool
    choice: str = "none"  # "scs", "med", or "none"
    travel_s: float = 0.0
    wait_s: float = 0.0
    stranded: bool = False


# the draws a trip may take before the level target is given up on
DRAW_ATTEMPTS = 400


def sample_trips(caches: PathCache, level: str, rng: random.Random, entries, n: int) -> list:
    """``n`` (source, dest, energy, anxious) trips hitting an anxiety-level target.

    The anxious count is pinned exactly (rounded share of ``n``); each trip
    then draws a source from ``entries`` (the graph's if None), a destination
    far or near enough and an energy level conditioned on the wanted flag, so
    the realized fraction cannot drift. A trip is anxious when its battery
    holds less than :func:`~medsim.routing.trip_energy`. No trip is drawn
    between nodes with no path: its need is infinite, so no level covers it.
    """
    g = caches.g
    entries = list(g.entries if entries is None else entries)
    dests = g.order  # sorted, so a seed always draws the same trips
    if not entries or len(dests) < 2:
        raise CalibrationError("graph too small to spawn trips")
    n_anxious = round(LEVEL_TARGETS[level] * n)
    flags = [True] * n_anxious + [False] * (n - n_anxious)
    rng.shuffle(flags)
    trips = []
    for want_anxious in flags:
        for _ in range(DRAW_ATTEMPTS):
            s = rng.choice(entries)
            d = rng.choice(dests)
            if d == s:
                continue
            need = trip_energy(caches, s, d)
            if want_anxious:
                if not ENERGY_MIN_KWH < need < INFINITE:
                    continue
                hi = min(ENERGY_MAX_KWH, need)
                eps = ENERGY_MIN_KWH + rng.random() * (hi - ENERGY_MIN_KWH)
            else:
                if not need < ENERGY_MAX_KWH:
                    continue
                lo = max(ENERGY_MIN_KWH, need)
                eps = lo + rng.random() * (ENERGY_MAX_KWH - lo)
            trips.append((s, d, eps, want_anxious))
            break
        else:
            raise CalibrationError(
                f"could not draw an {'anxious' if want_anxious else 'relaxed'} trip; "
                f"the graph's route energies cannot realize the level target")
    return trips


def generate_population(scenario: Scenario, network: Network):
    """Deterministic spawn list, as records not yet routed; independent of the mode.

    The same seed yields the same population for both modes, which is what
    makes paired mode comparisons meaningful. The network remembers its last
    draw with everything else the draw reads: the seed, the EV count, the
    level, the horizon, the drop rate and the entries. A call with an equal
    key reuses it, so the second mode of a pair draws nothing. Each call
    returns new records, as :func:`run` writes outcomes into them.
    """
    entries = None if scenario.entries is None else \
        tuple((type(node), node) for node in scenario.entries)  # 1 and 1.0 print apart
    key = (scenario.seed, scenario.ev_count, scenario.level, scenario.horizon_s,
           scenario.block_prob, entries)
    n = scenario.ev_count
    if network.population is None or network.population[0] != key:
        rng = random.Random(scenario.seed)
        arrivals = sorted(rng.uniform(0.0, scenario.horizon_s) for _ in range(n))
        trips = sample_trips(network.caches, scenario.level, rng, scenario.entries, n)
        excluded = [rng.random() < scenario.block_prob for _ in range(n)]
        network.population = key, arrivals, trips, excluded
    _, arrivals, trips, excluded = network.population
    width = max(3, len(str(max(n - 1, 0))))
    return [EvRecord(f"ev{k:0{width}d}", arrivals[k], s, d, eps, anx, excl)
            for k, ((s, d, eps, anx), excl) in enumerate(zip(trips, excluded))]


# -- metrics ---------------------------------------------------------------------


CSV_HEADER = ("ev,arrival_s,source,dest,energy_kwh,anxious,excluded,"
              "choice,travel_s,wait_s,stranded")


@dataclass
class RunMetrics:
    mode: str
    level: str
    ev_count: int
    seed: int
    rows: list = field(default_factory=list)
    assignments: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    infrastructure: Infrastructure | None = None  # final ledgers, for audits

    def mean_travel_s(self) -> float:
        return sum(r.travel_s for r in self.rows) / len(self.rows) if self.rows else 0.0

    def mean_wait_s(self) -> float:
        return sum(r.wait_s for r in self.rows) / len(self.rows) if self.rows else 0.0

    def med_share(self) -> float:
        """Fraction of the whole population that charged from the mobile charger."""
        return self.counts()["med"] / len(self.rows) if self.rows else 0.0

    def counts(self) -> dict:
        return {"scs": 0, "med": 0, "none": 0, **Counter(r.choice for r in self.rows)}

    def stranded_count(self) -> int:
        return sum(1 for r in self.rows if r.stranded)

    def aggregates(self) -> dict:
        c = self.counts()
        return {
            "mode": self.mode, "level": self.level, "ev_count": self.ev_count,
            "seed": self.seed,
            "mean_travel_s": self.mean_travel_s(),
            "mean_wait_s": self.mean_wait_s(),
            "med_share": self.med_share(),
            "n_scs": c["scs"], "n_med": c["med"], "n_none": c["none"],
            "stranded": self.stranded_count(),
            "violations": len(self.violations),
        }

    def to_csv(self) -> str:
        lines = [CSV_HEADER] + [
            f"{r.ev},{r.t_arrival_s:.6f},{r.source},{r.dest},"
            f"{r.energy_kwh:.6f},{int(r.anxious)},{int(r.excluded)},"
            f"{r.choice},{r.travel_s:.6f},{r.wait_s:.6f},{int(r.stranded)}" for r in self.rows]
        return "\n".join(lines) + "\n"


# -- the run itself ---------------------------------------------------------------


@dataclass(eq=False)
class Network:
    """A loaded road graph, its path cache and its last population draw.

    One network serves every run whose scenario has an equal ``key``, what
    the graph and its cache were built from: the graph value and its id
    types (the outputs print 1 and 1.0 apart), the vehicle and the visit
    limit. ``population`` is the key and draws of the last
    :func:`generate_population` on it; ledgers and records stay per run.
    """

    graph: RoadGraph
    caches: PathCache
    key: tuple
    population: tuple | None = field(default=None, init=False)


def _network_key(scenario: Scenario) -> tuple:
    return scenario.graph, scenario.graph.id_types, scenario.vehicle, scenario.visit_limit


def load_network(scenario: Scenario) -> Network:
    """Price the scenario's checked graph for its vehicle and start an empty path cache."""
    g = load_graph(scenario.graph, vehicle=scenario.vehicle,
                   visit_limit=scenario.visit_limit)
    return Network(g, PathCache(g), _network_key(scenario))


# the network :func:`network_for` returned last; its key holds a graph
# value, so no edit to a caller's document can make a later run match it
_last_network: Network | None = None


def network_for(scenario: Scenario) -> Network:
    """The remembered network if its key equals the scenario's, else a new one.

    A pickled copy of a scenario, as a sweep worker receives it, still
    matches. A miss loads a network, which becomes the one remembered.
    """
    global _last_network
    if _last_network is None or _last_network.key != _network_key(scenario):
        _last_network = load_network(scenario)
    return _last_network


def build_infrastructure(scenario: Scenario, g: RoadGraph) -> Infrastructure:
    """The chargers an EV of the scenario may book, on ``g``, its graph loaded.

    The scenario checked them. In mode "SCS" the mobile chargers take no
    bookings, so only the stations are built.
    """
    meds = [MedState(g, scenario.induction if spec.p_ind_kw is None else
                     InductionParams(scenario.induction.c_ind, spec.p_ind_kw),
                     battery_kwh=spec.battery_kwh, start_s=spec.start_s)
            for spec in scenario.meds] if scenario.mode == "SCS_MED" else []
    return Infrastructure([ScsState(node, rate) for node, rate in scenario.scs], meds)


def _first_choice(assignment) -> str:
    stops = [(v.leg_index, "scs") for v in assignment.z_visits]
    stops += [(p.leg_index, "med") for p in assignment.q_points]
    return min(stops, default=(0, "none"))[1]


def run(scenario: Scenario, keep_assignments: bool = True) -> RunMetrics:
    """Simulate one scenario and collect metrics.

    EVs are routed in arrival order against live ledgers; stranded EVs are
    recorded with the penalty travel time rather than aborting the run. An
    EV routes against the mode's chargers (:func:`build_infrastructure`), or
    against none if the comms drop excluded it. The graph and its path cache
    come from :func:`network_for`, so a run on an equal network reuses the
    last one, and its population draw with it.
    """
    network = network_for(scenario)
    g, caches = network.graph, network.caches
    infra = build_infrastructure(scenario, g)
    # each record gets its outcome in place, in arrival order
    metrics = RunMetrics(scenario.mode, scenario.level, scenario.ev_count, scenario.seed,
                         rows=generate_population(scenario, network), infrastructure=infra)
    no_chargers = Infrastructure()

    for rec in metrics.rows:
        request = EvRequest(rec.ev, rec.source, rec.dest,
                            scenario.vehicle.capacity_kwh, rec.energy_kwh)
        try:
            a = find_shortest_path(g, request, no_chargers if rec.excluded else infra,
                                   now=rec.t_arrival_s, caches=caches)
        except Stranded:
            a = None
            rec.travel_s, rec.stranded = scenario.stranded_penalty_s, True
        else:
            for problem in check_assignment(g, a):
                metrics.violations.append(f"{rec.ev}: {problem}")
            rec.choice, rec.travel_s, rec.wait_s = _first_choice(a), a.total_time_s, a.wait_total_s
        if keep_assignments:
            metrics.assignments.append(a)
    return metrics
