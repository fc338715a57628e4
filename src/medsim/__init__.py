"""Routing and fleet simulation for EVs served by static stations and
bus-mounted mobile chargers."""

from .charging import (Booking, BookResult, Infrastructure, MedState, ScsState,
                       scs_charge_time)
from .comms import RadioParams, transmission_range
from .energy import (InductionParams, VehicleParams, air_force, drive_power,
                     induced_energy, rolling_force, segment_energy)
from .oracle import (FrozenMed, FrozenScs, OracleError, OracleInstance,
                     OracleSolution, solve_exact, verify)
from .road_graph import ArcAttr, GraphError, RoadGraph, build_graph, grid_doc, \
    load_graph
from .routing import (EvRequest, MedAttach, NoPath, PathCache, RouteAssignment,
                      ScsVisit, Stranded, check_assignment, find_best_energy_point,
                      find_shortest_path)
from .sim import (CalibrationError, EvRecord, RunMetrics, Scenario, default_scenario,
                  generate_population, load_network, run)

__version__ = "0.1.0"
