"""Per-segment EV energy consumption and inductive charging gain.

All energies are kWh, powers are W (drive) or kW (induction), times are
seconds unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GRAVITY_MPS2 = 9.8
J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of one EV model.

    Field names mirror the scenario JSON keys: mass_kg, mu, drag_c, area_m2,
    air_density, efficiency, capacity_kwh.
    """

    mass_kg: float
    mu: float
    drag_c: float
    area_m2: float
    air_density: float
    efficiency: float
    capacity_kwh: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        for name in ("mass_kg", "drag_c", "area_m2", "air_density",
                     "efficiency", "capacity_kwh"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if not 0.2 <= self.drag_c <= 1.0:
            raise ValueError(f"drag_c {self.drag_c} outside plausible car range [0.2, 1.0]")
        if self.efficiency > 1.0:
            raise ValueError("efficiency must be in (0, 1]")


@dataclass(frozen=True)
class InductionParams:
    """Inductive transfer coefficient and nominal mobile-charger power (kW)."""

    c_ind: float
    p_ind_kw: float

    def __post_init__(self):
        if not 0.0 <= self.c_ind <= 1.0:
            raise ValueError("c_ind must be in [0, 1]")
        if not 0 < self.p_ind_kw < math.inf:
            raise ValueError("p_ind_kw must be strictly positive and finite")


def rolling_force(vp: VehicleParams) -> float:
    """Rolling resistance in newtons."""
    return vp.mu * vp.mass_kg * GRAVITY_MPS2


def air_force(vp: VehicleParams, speed_mps: float) -> float:
    """Aerodynamic drag in newtons at the given speed."""
    if speed_mps < 0:
        raise ValueError("speed must be nonnegative")
    return 0.5 * vp.area_m2 * vp.drag_c * vp.air_density * speed_mps ** 2


def drive_power(vp: VehicleParams, speed_mps: float) -> float:
    """Steady-state traction power draw in watts.

    The efficiency factor multiplies the force term; it does not divide.
    """
    return vp.efficiency * (rolling_force(vp) + air_force(vp, speed_mps)) * speed_mps


def segment_energy(vp: VehicleParams, speed_mps: float, dwell_s: float) -> float:
    """Energy in kWh consumed while driving ``dwell_s`` seconds at constant speed."""
    if dwell_s <= 0:
        raise ValueError("dwell must be strictly positive")
    return drive_power(vp, speed_mps) * dwell_s / J_PER_KWH


def induced_energy(contact_s: float, ip: InductionParams) -> float:
    """Energy in kWh transferred inductively over ``contact_s`` seconds of contact."""
    if contact_s < 0:
        raise ValueError("contact time must be nonnegative")
    return (contact_s / 3600.0) * ip.c_ind * ip.p_ind_kw

