"""Spans and counters around the calls into medsim's modules, installed from outside.

Only the traced pass installs these wrappers; ``src/medsim`` is not edited.
Each wrapper replaces a name where its callers look it up (``medsim.sim``
calls ``find_shortest_path`` through its own module globals, so that is the
name patched), and installing fails loudly when a name no longer exists.

A span records its name, parent span, unit id, start and end in flat arrays
kept in memory; self time is computed after the pass as a span's duration
minus the durations of its direct children. Hot, tiny functions
(``RoadGraph.arc``, ``segment_energy``, the Dijkstra kernel) are counted,
not spanned.
"""

from __future__ import annotations

import statistics
import weakref
from array import array

from medsim import charging, cli, oracle, road_graph, routing, sim
from tails import tail

# (owner, attribute, span or counter name, kind, outcome hook)
TARGETS = (
    (sim, "run", "sim.run", "span", "_after_run"),
    (sim, "load_graph", "road_graph.load_graph", "span", None),
    (sim, "generate_population", "sim.generate_population", "span", None),
    (sim, "find_shortest_path", "routing.find_shortest_path", "span", None),
    (sim, "check_assignment", "routing.check_assignment", "span", None),
    (routing, "find_shortest_path", "routing.find_shortest_path", "span", None),
    (routing, "find_best_energy_point", "routing.find_best_energy_point", "span", None),
    (routing.PathCache, "path", "routing.path_cache", "span", "_after_path"),
    (routing.PathCache, "fwd", "routing.path_cache", "span", None),
    (routing.PathCache, "rev", "routing.path_cache", "span", None),
    (charging.ScsState, "book", "charging.scs_book", "span", "_after_booking"),
    (charging.MedState, "book_attach", "charging.med_book", "span", "_after_booking"),
    (charging.MedState, "waiting", "charging.med_waiting", "span", None),
    (oracle, "solve_exact", "oracle.solve_exact", "span", "_after_solve"),
    (oracle, "verify", "oracle.verify", "span", None),
    (cli, "cmd_sweep", "cli.sweep", "span", None),
    (routing, "_dijkstra_dist", "routing.dijkstra", "count", None),
    (road_graph.RoadGraph, "arc", "road_graph.arc", "count", None),
    (road_graph, "segment_energy", "energy.segment_energy", "count", None),
)


class Tracer:
    """In-memory span store plus counters for one traced pass."""

    def __init__(self, clock, units):
        self.clock = clock
        self.units = units
        self.names = []
        self.name_ix = array("H")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}
        self.path_calls = 0
        self.path_hits = 0
        self.booking_rejects = {"charging.scs_book": 0, "charging.med_book": 0}
        self.explored = 0
        self.sim_evs = self.sim_stranded = self.sim_violations = 0
        self._seen_paths = weakref.WeakKeyDictionary()

    # -- installation ---------------------------------------------------------

    def install(self):
        for owner, attr, *_ in TARGETS:
            if attr not in vars(owner):
                raise RuntimeError(f"trace target {owner.__name__}.{attr} no longer exists")
        for owner, attr, name, kind, hook in TARGETS:
            original = vars(owner)[attr]
            if kind == "count":
                setattr(owner, attr, self._counter(name, original))
            else:
                setattr(owner, attr, self._span(name, original, hook and getattr(self, hook)))
        # every unit is a root span, so layer spans have a parent chain to it
        self.units.enter = self._span("unit", self.units.enter)

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        ix = self.names.index(name)
        clock, stack, units = self.clock, self.stack, self.units
        name_ix, parent, unit = self.name_ix, self.parent, self.unit
        start, end = self.start, self.end

        def spanned(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            unit.append(units.current)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(name, args, kwargs, result)
            return result
        return spanned

    # -- outcome hooks (run after a successful call) ----------------------------

    def _after_path(self, name, args, kwargs, result):
        cache, source, target = args[:3]
        weight = args[3] if len(args) > 3 else kwargs.get("weight", "time")
        seen = self._seen_paths.setdefault(cache, set())
        key = (source, target, weight)
        self.path_calls += 1
        if key in seen:
            self.path_hits += 1
        seen.add(key)

    def _after_booking(self, name, args, kwargs, result):
        if not result.accepted:
            self.booking_rejects[name] += 1

    def _after_solve(self, name, args, kwargs, result):
        self.explored += result.explored

    def _after_run(self, name, args, kwargs, result):
        self.sim_evs += len(result.rows)
        self.sim_stranded += result.stranded_count()
        self.sim_violations += len(result.violations)

    # -- per-layer figures --------------------------------------------------------

    def layers(self):
        """Per span name: call count, self seconds and each call's duration."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        own = list(dur)
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                own[p] -= dur[k]
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in self.names}
        for k in range(n):
            entry = out[self.names[self.name_ix[k]]]
            entry["calls"] += 1
            entry["self_s"] += own[k]
            entry["durations"].append(dur[k])
        return out


def per_layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by name."""
    lay = tracer.layers()
    cnt = tracer.counts

    def calls(name):
        return lay[name]["calls"]

    def self_s(name):
        return lay[name]["self_s"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    routes = lay["routing.find_shortest_path"]["durations"]
    pct, route_tail = tail(routes) if routes else (50.0, 0.0)
    m = {
        "road_graph.load_graph.calls": calls("road_graph.load_graph"),
        "road_graph.load_graph.self_s": self_s("road_graph.load_graph"),
        "energy.segment_energy.calls": cnt["energy.segment_energy"],
        "road_graph.arc.calls": cnt["road_graph.arc"],
        "routing.dijkstra.runs": cnt["routing.dijkstra"],
        "routing.path_cache.path_calls": tracer.path_calls,
        "routing.path_cache.hit_ratio": ratio(tracer.path_hits, tracer.path_calls),
        "routing.path_cache.self_s": self_s("routing.path_cache"),
        "routing.check_assignment.calls": calls("routing.check_assignment"),
        "routing.check_assignment.self_s": self_s("routing.check_assignment"),
        "routing.find_shortest_path.calls": len(routes),
        "routing.find_shortest_path.self_s": self_s("routing.find_shortest_path"),
        "routing.route_p50_us": statistics.median(routes) * 1e6 if routes else 0.0,
        "routing.route_tail_us": route_tail * 1e6,
        "routing.find_best_energy_point.calls": calls("routing.find_best_energy_point"),
        "routing.find_best_energy_point.self_s": self_s("routing.find_best_energy_point"),
        "sim.generate_population.self_s": self_s("sim.generate_population"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.stranded_share": ratio(tracer.sim_stranded, tracer.sim_evs),
        "sim.violations": tracer.sim_violations,
        "oracle.solve_exact.self_s": self_s("oracle.solve_exact"),
        "oracle.explored": tracer.explored,
        "oracle.verify.self_s": self_s("oracle.verify"),
        "cli.sweep.self_s": self_s("cli.sweep"),
    }
    for kind in ("scs_book", "med_book"):
        name = f"charging.{kind}"
        m[f"{name}.attempts"] = calls(name)
        m[f"{name}.reject_ratio"] = ratio(tracer.booking_rejects[name], calls(name))
    m["charging.med_waiting.self_s"] = self_s("charging.med_waiting")
    info = {"route_tail_percentile": pct, "route_samples": len(routes)}
    return m, info
