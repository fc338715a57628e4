"""Charging infrastructure semantics: station queues and mobile-charger cycles.

A static station serves one EV at a time, first come first served, and every
visit charges to full. A mobile charger loops a fixed cycle forever; an EV
meets it at a cycle point, follows it for a contiguous run of segments, and
each segment of each cycle pass can be booked by at most one EV. Booking
ledgers are the only mutable state here; everything else is arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .energy import InductionParams, induced_energy
from .road_graph import RoadGraph
from .routing import _EPS_TOL


@dataclass(frozen=True)
class Booking:
    ev: str
    start_s: float
    end_s: float
    segment_keys: tuple = ()  # ((segment index, cycle pass), ...) at a mobile charger

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError("booking must end after it starts")


@dataclass(frozen=True)
class BookResult:
    accepted: bool


def scs_charge_time(energy_kwh: float, capacity_kwh: float, rate_kw: float) -> float:
    """Seconds to fill from ``energy_kwh`` (1e-9 slack on [0, capacity]) at ``rate_kw``."""
    if rate_kw <= 0:
        raise ValueError("charge rate must be positive")
    if energy_kwh < -1e-9 or energy_kwh > capacity_kwh + 1e-9:
        raise ValueError("energy level outside [0, capacity]")
    return max(0.0, capacity_kwh - energy_kwh) / rate_kw * 3600.0


class ScsState:
    """A static charging station with its booking ledger.

    The station owns its slot rule: an EV arriving at ``arrival`` starts
    charging at ``max(arrival, booked_until)``. The wait the router prices
    and the slot the ledger grants both come from that one expression, so a
    priced slot is always granted and bookings never overlap.
    """

    def __init__(self, node: int, rate_kw: float):
        if not rate_kw > 0:
            raise ValueError("station rate must be positive")
        self.node = node
        self.rate_kw = rate_kw
        self.bookings: list[Booking] = []

    @property
    def booked_until(self) -> float:
        return self.bookings[-1].end_s if self.bookings else 0.0

    def _slot_start(self, arrival_s: float) -> float:
        return max(arrival_s, self.booked_until)

    def wait_s(self, now: float, drive_s: float) -> float:
        """Queue wait of an EV that sets off at ``now`` and drives ``drive_s``."""
        arrival = now + drive_s
        return self._slot_start(arrival) - arrival

    def charge_s(self, energy_kwh: float, capacity_kwh: float) -> float:
        return scs_charge_time(energy_kwh, capacity_kwh, self.rate_kw)

    def book(self, ev: str, arrival_s: float, charge_s: float) -> BookResult:
        """Queue an EV arriving at ``arrival_s`` for ``charge_s`` seconds."""
        start = self._slot_start(arrival_s)
        self.bookings.append(Booking(ev, start, start + charge_s))
        return BookResult(True)


@dataclass(frozen=True)
class CycleSegment:
    index: int
    i: int
    j: int
    drive_s: float
    energy_kwh: float
    induced_kwh: float


class MedState:
    """A mobile charger on a closed cycle, with per-segment per-pass bookings.

    The charger loops the graph's cycle from ``start_s`` on: it first
    reaches cycle point ``idx`` at ``start_s + cum_starts[idx]`` and again
    every ``cycle_time_s``. A pass of the cycle starts at point 0 and is
    numbered by the second element of a segment key. Each pass starts with
    a full dissemination battery, so one pass may dispense at most
    ``battery_kwh`` over all its bookings; an infinite battery never runs
    dry. How far one attach run may ride, within that budget and
    ``max_passes`` (the graph's ``visit_limit``) passes of the cycle, is
    the rule of :func:`medsim.routing.attach_run`, which reads both.
    """

    def __init__(self, graph: RoadGraph, induction: InductionParams,
                 battery_kwh: float = 200.0, start_s: float = 0.0):
        pts = graph.med_points
        if len(pts) < 2:
            raise ValueError("mobile charger needs a cycle of at least two points")
        segs = []
        for k, (i, j) in enumerate(graph.med_cycle_segments()):
            attr = graph.arc(i, j)
            segs.append(CycleSegment(k, i, j, attr.drive_time_s, attr.energy_kwh,
                                     induced_energy(attr.drive_time_s, induction)))
        self.points = pts
        self.segments = tuple(segs)
        # the drive time from point 0 to each point, and round the whole cycle
        *self.cum_starts, self.cycle_time_s = accumulate((s.drive_s for s in segs), initial=0.0)
        self.battery_kwh = battery_kwh
        self.start_s = start_s
        self.max_passes = graph.visit_limit
        self.segment_bookings: dict[tuple[int, int], str] = {}
        self.pass_dispensed: dict[int, float] = {}  # energy booked per cycle pass
        self.bookings: list[Booking] = []

    # -- geometry of the loop -------------------------------------------------

    def arrival_at(self, point_idx: int, now: float) -> float:
        """Next absolute time the charger reaches a cycle point, from ``now``; never before
        ``start_s + cum_starts[point_idx]``, as the charger sets off at ``start_s``."""
        if now < self.start_s:
            return self.start_s + self.cum_starts[point_idx]
        offset = (now - self.start_s) % self.cycle_time_s
        ahead = (self.cum_starts[point_idx] - offset) % self.cycle_time_s
        return now + ahead

    def pass_number(self, point_idx: int, arrival_s: float) -> int:
        elapsed = arrival_s - self.start_s
        return int(round((elapsed - self.cum_starts[point_idx]) / self.cycle_time_s))

    def segment_keys(self, start_idx: int, pass_no: int, n_segments: int):
        u = len(self.segments)
        return tuple(((start_idx + k) % u, pass_no + (start_idx + k) // u)
                     for k in range(n_segments))

    def _pass_shares(self, keys) -> dict:
        """Each pass's share of a span's ``(segment, pass)`` keys: the left fold, in span
        order, of its segments' induced energies, as :func:`attach_run` folds a pass."""
        shares = {}
        for seg, pass_no in keys:
            shares[pass_no] = shares.get(pass_no, 0.0) + self.segments[seg].induced_kwh
        return shares

    def waiting(self, start_idx: int, ev_arrival_s: float, n_segments: int):
        """Wait at the meeting point and the cycle pass the EV will ride.

        The smallest nonnegative wait such that the charger reaches the point
        no earlier than the EV does, none of the span's segments is booked
        for that pass and each pass the span touches still holds the span's
        share; whole cycles are added as needed. A share beyond a whole
        pass's budget would wait forever, so it raises ``ValueError``.

        The span's (segment, pass offset) pairs and shares are worked out
        once per call; each try adds one ``cycle_time_s`` to the arrival,
        takes the pass from :meth:`pass_number` and makes the tests, sums
        and comparisons :meth:`book_attach` makes, so the two agree bit for bit.
        """
        u = len(self.segments)
        span = [((start_idx + k) % u, (start_idx + k) // u) for k in range(n_segments)]
        limit = self.battery_kwh + _EPS_TOL
        shares = self._pass_shares(span)
        if max(shares.values()) > limit:
            raise ValueError("the span dispenses more than one pass's budget")
        booked, spent = self.segment_bookings, self.pass_dispensed
        arrival = self.arrival_at(start_idx, ev_arrival_s)
        while True:
            pass_no = self.pass_number(start_idx, arrival)
            for seg, offset in span:
                if (seg, pass_no + offset) in booked:
                    break
            else:
                for offset, share in shares.items():
                    if spent.get(pass_no + offset, 0.0) + share > limit:
                        break
                else:
                    return arrival - ev_arrival_s, pass_no
            arrival += self.cycle_time_s

    # -- ledger ----------------------------------------------------------------

    def book_attach(self, ev: str, segment_keys, start_s: float, end_s: float) -> BookResult:
        """Reserve a contiguous run of segments, ``((segment, pass), ...)``.

        Accepts only when every segment key is still free and each pass the
        keys touch still has the energy to hand out their share; the segment
        ledger and the energy booked per pass update together.
        """
        booked, spent = self.segment_bookings, self.pass_dispensed
        limit = self.battery_kwh + _EPS_TOL
        shares = self._pass_shares(segment_keys)
        if any(k in booked for k in segment_keys) or any(
                spent.get(p, 0.0) + share > limit for p, share in shares.items()):
            return BookResult(False)
        booked.update(dict.fromkeys(segment_keys, ev))
        for p, share in shares.items():
            spent[p] = spent.get(p, 0.0) + share
        self.bookings.append(Booking(ev, start_s, end_s, tuple(segment_keys)))
        return BookResult(True)


@dataclass
class Infrastructure:
    """The charging fleet a router run books against."""

    scs_units: list = field(default_factory=list)
    med_units: list = field(default_factory=list)

