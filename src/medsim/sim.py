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
from .road_graph import (GraphError, GraphSpec, RoadGraph, check_visit_limit, load_graph,
                         grid_doc, node_set, parse_graph, require_keys)
from .routing import (INFINITE, EvRequest, NoPath, PathCache, Stranded, check_assignment,
                      find_shortest_path)

LEVEL_TARGETS = {"L1": 0.20, "L2": 0.60, "L3": 0.95}
MODES = ("SCS", "SCS_MED")
ENERGY_MIN_KWH = 1.0
ENERGY_MAX_KWH = 6.0
# radio keys older scenario documents carry; nothing reads them
_LEGACY_RADIO_KEYS = ("beacon_period_s", "ptx_dbm", "f_ghz", "pth_dbm", "sinr_db")
# each key a document may hold, with its converter (None: as it is); a missing key keeps the default
_SCENARIO_KEYS = {"graph": None, "mode": None, "ev_count": int, "level": None, "seed": int,
                  "horizon_s": float, "stranded_penalty_s": None,
                  "vehicle": lambda block: VehicleParams(**block),
                  "induction": lambda block: InductionParams(**block),
                  "visit_limit": int, "entries": None}
_MED_KEYS = {"battery_kwh": float, "p_ind_kw": None, "start_s": float}


class CalibrationError(Exception):
    """The graph cannot realize the requested anxiety level."""


DEFAULT_VEHICLE = VehicleParams(mass_kg=1800.0, mu=0.013, drag_c=0.52, area_m2=2.2,
                                air_density=1.2, efficiency=0.75, capacity_kwh=50.0)
DEFAULT_INDUCTION = InductionParams(c_ind=0.75, p_ind_kw=40.0)


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
        if self.p_ind_kw is not None and not 0.0 < self.p_ind_kw < INFINITE:
            raise ValueError(f"med p_ind_kw must be positive and finite, got {self.p_ind_kw}")


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
    visit_limit: int = 2
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
        if self.stranded_penalty_s is None:
            self.stranded_penalty_s = 10.0 * self.horizon_s
        for name in ("horizon_s", "stranded_penalty_s"):  # chained, so NaN fails too
            value = getattr(self, name)
            if not 0.0 <= value < INFINITE:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")
        check_visit_limit(self.visit_limit)
        if not isinstance(self.graph, GraphSpec):
            self.graph = parse_graph(self.graph)
        self.graph.priced(self.vehicle)  # every arc costs the vehicle a finite energy
        for node, rate in self.scs:
            if not rate > 0.0:
                raise ValueError(f"station {node} rate_kw must be positive, got {rate}")
            if node not in self.graph.scs:
                raise GraphError(f"station {node} is not a station of the graph")
        missing = node_set(self.entries or (), "scenario entries").difference(self.graph.nodes)
        if missing:
            node = next(n for n in self.entries if n in missing)
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
        doc = dict(doc)
        if "graph_path" in doc and "graph" not in doc:
            doc["graph"] = doc["graph_path"]  # read by __post_init__
        require_keys(doc, ("graph",), "scenario", ValueError)
        infra = doc.get("infra", {})
        for k, s in enumerate(infra.get("scs", ())):
            require_keys(s, ("node",), f"infra scs entry #{k}", ValueError)
        radio = dict(doc.get("radio", {}))
        for key in radio:
            if key != "block_prob" and key not in _LEGACY_RADIO_KEYS:
                raise ValueError(f"radio block has an unknown key {key!r}")
        kwargs = _given(doc, _SCENARIO_KEYS) | _given(radio, {"block_prob": float})
        kwargs["scs"] = [(s["node"], float(s.get("rate_kw", STATION_RATE_KW)))
                         for s in infra.get("scs", ())]
        kwargs["meds"] = [MedSpec(**_given(m, _MED_KEYS)) for m in infra.get("med", ())]
        return cls(**(kwargs | overrides))


def _given(doc: dict, convert: dict) -> dict:
    """The keys of ``doc`` that ``convert`` names, each through its converter."""
    return {key: value if convert[key] is None else convert[key](value)
            for key, value in doc.items() if key in convert}


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


class LevelSampler:
    """Draws (source, dest, energy) triples hitting an anxiety-level target.

    The anxious count is pinned exactly (rounded share of the population);
    each draw then picks a destination far or near enough and an energy level
    conditioned on the wanted flag, so the realized fraction cannot drift.
    """

    def __init__(self, g: RoadGraph, level: str, rng: random.Random,
                 entries=None, caches: PathCache | None = None):
        self.g = g
        self.target = LEVEL_TARGETS[level]
        self.rng = rng
        self.caches = caches or PathCache(g)
        self.entries = list(entries) if entries is not None else list(g.entries)
        self.dests = g.order  # sorted, so a seed always draws the same trips
        if not self.entries or len(self.dests) < 2:
            raise CalibrationError("graph too small to spawn trips")
        self._energy_memo = {}

    def route_energy(self, s, d) -> float:
        """Energy of the time-shortest route from ``s`` to ``d``, memoized.

        This is the one definition of an anxious trip: its battery holds
        less than this. :meth:`draw` conditions every energy level on it.
        """
        key = (s, d)
        if key not in self._energy_memo:
            try:
                self._energy_memo[key] = self.caches.path(s, d, "time").energy_kwh
            except NoPath:
                self._energy_memo[key] = INFINITE
        return self._energy_memo[key]

    def draw(self, want_anxious: bool, attempts: int = 400):
        for _ in range(attempts):
            s = self.rng.choice(self.entries)
            d = self.rng.choice(self.dests)
            if d == s:
                continue
            need = self.route_energy(s, d)
            if want_anxious:
                if not ENERGY_MIN_KWH < need:
                    continue
                hi = min(ENERGY_MAX_KWH, need)
                eps = ENERGY_MIN_KWH + self.rng.random() * (hi - ENERGY_MIN_KWH)
            else:
                if not need < ENERGY_MAX_KWH:
                    continue
                lo = max(ENERGY_MIN_KWH, need)
                eps = lo + self.rng.random() * (ENERGY_MAX_KWH - lo)
            return s, d, eps
        raise CalibrationError(
            f"could not draw an {'anxious' if want_anxious else 'relaxed'} trip; "
            f"the graph's route energies cannot realize the level target")

    def sample(self, n: int):
        n_anxious = round(self.target * n)
        flags = [True] * n_anxious + [False] * (n - n_anxious)
        self.rng.shuffle(flags)
        return [(*self.draw(f), f) for f in flags]


def generate_population(scenario: Scenario, g: RoadGraph,
                        caches: PathCache | None = None):
    """Deterministic spawn list, as records not yet routed; independent of the mode.

    The same seed yields the same population for both modes, which is what
    makes paired mode comparisons meaningful.
    """
    rng = random.Random(scenario.seed)
    n = scenario.ev_count
    arrivals = sorted(rng.uniform(0.0, scenario.horizon_s) for _ in range(n))
    sampler = LevelSampler(g, scenario.level, rng, scenario.entries, caches)
    draws = sampler.sample(n)
    excluded = [rng.random() < scenario.block_prob for _ in range(n)]
    width = max(3, len(str(max(n - 1, 0))))
    return [EvRecord(f"ev{k:0{width}d}", arrivals[k], s, d, eps, anx, excl)
            for k, ((s, d, eps, anx), excl) in enumerate(zip(draws, excluded))]


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


@dataclass(frozen=True, eq=False)
class Network:
    """A loaded road graph and its path cache, keyed on what they were built from.

    One network serves every run whose scenario has an equal ``key``: the
    graph value and its id types (the outputs print 1 and 1.0 apart), the
    vehicle and the visit limit. Ledgers and the population stay per run.
    """

    graph: RoadGraph
    caches: PathCache
    key: tuple


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
    """The scenario's chargers on ``g``, its graph loaded; the scenario checked them."""
    meds = [MedState(g, scenario.induction if spec.p_ind_kw is None else
                     InductionParams(scenario.induction.c_ind, spec.p_ind_kw),
                     battery_kwh=spec.battery_kwh, start_s=spec.start_s)
            for spec in scenario.meds]
    return Infrastructure([ScsState(node, rate) for node, rate in scenario.scs], meds)


def _first_choice(assignment) -> str:
    stops = [(v.leg_index, "scs") for v in assignment.z_visits]
    stops += [(p.leg_index, "med") for p in assignment.q_points]
    return min(stops, default=(0, "none"))[1]


def _refuse_all(kind, node) -> bool:
    """Charger gate of an EV the comms drop excluded: it may use no charger."""
    return False


def _refuse_med(kind, node) -> bool:
    """Charger gate of SCS mode: the mobile chargers take no bookings."""
    return kind != "med"


def run(scenario: Scenario, keep_assignments: bool = True) -> RunMetrics:
    """Simulate one scenario and collect metrics.

    EVs are routed in arrival order against live ledgers; stranded EVs are
    recorded with the penalty travel time rather than aborting the run. An
    EV's charger gate is :func:`_refuse_all` if the comms drop excluded it,
    else :func:`_refuse_med` in mode "SCS" (the mobile chargers take no
    bookings), else none. The graph and its path cache come from
    :func:`network_for`, so a run on an equal network reuses the last one.
    """
    network = network_for(scenario)
    g, caches = network.graph, network.caches
    infra = build_infrastructure(scenario, g)
    # each record gets its outcome in place, in arrival order
    metrics = RunMetrics(scenario.mode, scenario.level, scenario.ev_count, scenario.seed,
                         rows=generate_population(scenario, g, caches), infrastructure=infra)
    # what an EV not excluded by the comms drop may use: everything, or no
    # mobile charger in SCS mode
    open_gate = None if scenario.mode == "SCS_MED" else _refuse_med

    for rec in metrics.rows:
        request = EvRequest(rec.ev, rec.source, rec.dest,
                            scenario.vehicle.capacity_kwh, rec.energy_kwh)
        try:
            a = find_shortest_path(g, request, infra, now=rec.t_arrival_s,
                                   gate=_refuse_all if rec.excluded else open_gate,
                                   caches=caches)
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
