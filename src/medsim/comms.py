"""Radio parameters and transmission range of the charging VANET.

The radio model is a log-distance path-loss inversion calibrated on two
published endpoints: a receiver sensitivity of -69 dBm hears the 18 dBm
transmitter out to 130 m, and -85 dBm out to 300 m. Obstacle attenuation
(SINR below threshold behind buildings) is reduced to the scenario's
``block_prob``, a per-EV drop rate applied in the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_CAL_HIGH_DBM = -69.0   # sensitivity giving 130 m
_CAL_LOW_DBM = -85.0    # sensitivity giving 300 m
_CAL_NEAR_M = 130.0
_CAL_FAR_M = 300.0
# path-loss exponent solving both calibration points at once
_GAMMA = (_CAL_HIGH_DBM - _CAL_LOW_DBM) / (10.0 * math.log10(_CAL_FAR_M / _CAL_NEAR_M))


@dataclass(frozen=True)
class RadioParams:
    pth_dbm: float = -85.0  # receiver sensitivity


def transmission_range(rp: RadioParams) -> float:
    """Radio range in meters for the configured receiver sensitivity.

    Only valid inside the calibrated sensitivity band; the interpolation is
    pinned to the two published endpoints and is strictly monotone between
    them (lower sensitivity value reaches farther).
    """
    if not _CAL_LOW_DBM <= rp.pth_dbm <= _CAL_HIGH_DBM:
        raise ValueError(
            f"sensitivity {rp.pth_dbm} dBm outside calibrated band "
            f"[{_CAL_LOW_DBM}, {_CAL_HIGH_DBM}]")
    return _CAL_NEAR_M * 10.0 ** ((_CAL_HIGH_DBM - rp.pth_dbm) / (10.0 * _GAMMA))

