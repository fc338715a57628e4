"""Charging infrastructure semantics: station queues and mobile-charger cycles.

A static station serves one EV at a time, first come first served, and every
visit charges to full. A mobile charger loops a fixed cycle forever; an EV
meets it at a cycle point and rides it, by the charger's own rule, for a
contiguous run of segments; each segment of each cycle pass can be booked by
at most one EV. Only the ledgers and each charger's memo of runs ever change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, cycle, islice

from .energy import InductionParams, induced_energy
from .road_graph import RoadGraph
from .routing import _EPS_TOL

STATION_RATE_KW = 19.2  # a station's charge rate where its document gives none


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
    dry. The charger owns the ride: :meth:`ride` rules how far an attach
    run may go, and :meth:`span` records what a run takes from each pass
    for :meth:`waiting`, :meth:`book_attach` and ``MedAttach.build``.
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
        self._spans = {}

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

    def ride(self, start_idx: int, eps: float, capacity: float):
        """The one rule for riding this charger: how far an attach run may go.

        Follows the cycle from point ``start_idx`` with the battery at
        ``eps``. After each segment the EV can ride it yields ``(segment,
        level, attach_s)``: the level after it is ``eps - energy + induced``
        capped at ``capacity``, and the attached drive time is a left fold.
        The budget is per cycle pass, so the fold of the energy dispensed
        restarts each time the run crosses cycle index 0, where a pass
        begins. The run ends before a segment that would take that fold past
        ``battery_kwh`` or leave the level below zero (each beyond
        :data:`_EPS_TOL`), and after ``max_passes`` whole cycles. The fold
        within a pass is the share :meth:`span` records.
        """
        segs = self.segments
        budget, floor = self.battery_kwh + _EPS_TOL, -_EPS_TOL
        attach_s = in_pass = 0.0
        for seg in islice(cycle(segs), start_idx, start_idx + self.max_passes * len(segs)):
            induced = seg.induced_kwh
            in_pass = induced if seg.index == 0 else in_pass + induced
            if in_pass > budget:
                return
            level = eps - seg.energy_kwh + induced
            eps = level if level < capacity else capacity
            if eps < floor:
                return
            attach_s += seg.drive_s
            yield seg, eps, attach_s

    def span(self, start_idx: int, n_segments: int):
        """The run of ``n_segments`` from cycle point ``start_idx``, built once per charger.

        Returns ``(keys, shares)``: the run's ``(segment, pass offset)`` pairs
        in run order (ridden from pass ``p``, offset ``k`` is pass ``p + k``),
        and a dict of each offset's share, the energy :meth:`ride` folds there.
        """
        found = self._spans.get((start_idx, n_segments))
        if found is None:
            u = len(self.segments)
            keys = tuple(((start_idx + k) % u, (start_idx + k) // u) for k in range(n_segments))
            shares = {}
            for seg, offset in keys:
                shares[offset] = shares.get(offset, 0.0) + self.segments[seg].induced_kwh
            found = self._spans[start_idx, n_segments] = keys, shares
        return found

    def segment_keys(self, start_idx: int, pass_no: int, n_segments: int):
        return tuple((seg, pass_no + offset) for seg, offset in self.span(start_idx, n_segments)[0])

    def waiting(self, start_idx: int, ev_arrival_s: float, n_segments: int):
        """Wait at the meeting point and the cycle pass the EV will ride.

        The smallest nonnegative wait such that the charger reaches the point
        no earlier than the EV does and the span is free on that pass
        (:meth:`_free`). Whole cycles are added as needed. A share beyond a
        whole pass's budget would wait forever, so it raises ``ValueError``.
        Each try adds one ``cycle_time_s`` to the arrival and takes the pass
        from :meth:`pass_number`.
        """
        keys, shares = self.span(start_idx, n_segments)
        if max(shares.values()) > self.battery_kwh + _EPS_TOL:
            raise ValueError("the span dispenses more than one pass's budget")
        arrival = self.arrival_at(start_idx, ev_arrival_s)
        while True:
            pass_no = self.pass_number(start_idx, arrival)
            if self._free(keys, shares, pass_no):
                return arrival - ev_arrival_s, pass_no
            arrival += self.cycle_time_s

    def _free(self, keys, shares, pass_no: int) -> bool:
        """Whether a :meth:`span`, its ``keys`` and ``shares``, is free ridden from ``pass_no``.

        The one test :meth:`waiting` and :meth:`book_attach` make: none of
        its keys is booked, and each pass it touches has ``spent + share <=
        battery_kwh + _EPS_TOL``.
        """
        booked, spent = self.segment_bookings, self.pass_dispensed
        for seg, offset in keys:
            if (seg, pass_no + offset) in booked:
                return False
        limit = self.battery_kwh + _EPS_TOL
        for offset, share in shares.items():
            if spent.get(pass_no + offset, 0.0) + share > limit:
                return False
        return True

    # -- ledger ----------------------------------------------------------------

    def book_attach(self, ev: str, start_idx: int, pass_no: int, n_segments: int,
                    start_s: float, end_s: float) -> BookResult:
        """Reserve the :meth:`span` of ``n_segments`` from ``start_idx``, ridden from ``pass_no``.

        The span is one :meth:`waiting` found free on that pass (:meth:`_free`);
        one that is not raises ``ValueError`` and books nothing. The segment
        ledger and the energy booked per pass update together.
        """
        keys, shares = self.span(start_idx, n_segments)
        if not self._free(keys, shares, pass_no):
            raise ValueError(f"the span is not free on pass {pass_no}")
        segment_keys = self.segment_keys(start_idx, pass_no, n_segments)
        self.segment_bookings.update(dict.fromkeys(segment_keys, ev))
        spent = self.pass_dispensed
        for offset, share in shares.items():
            spent[pass_no + offset] = spent.get(pass_no + offset, 0.0) + share
        self.bookings.append(Booking(ev, start_s, end_s, segment_keys))
        return BookResult(True)


@dataclass
class Infrastructure:
    """The charging fleet a router run books against."""

    scs_units: list = field(default_factory=list)
    med_units: list = field(default_factory=list)

