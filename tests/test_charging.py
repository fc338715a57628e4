import math

import pytest
from hypothesis import given, settings, strategies as st

from medsim.charging import Booking, Infrastructure, MedState, ScsState, scs_charge_time
from medsim.energy import InductionParams
from medsim.road_graph import ArcAttr, build_graph
from medsim.routing import (EvRequest, PathCache, Stranded, _plan_med_span,
                            find_best_energy_point)


def ring_graph(times, energy=0.1):
    """Closed 4-ring whose cycle segment drive times are given."""
    arcs = {}
    for k, dt in enumerate(times):
        arcs[(k, (k + 1) % 4)] = ArcAttr(dt, energy, 1000.0)
    return build_graph(range(4), arcs, med_cycle=[0, 1, 2, 3], visit_limit=2)


class TestScsChargeTime:
    def test_already_full(self):
        assert scs_charge_time(50.0, 50.0, 19.2) == 0.0

    def test_hand_value(self):
        # (50-10)/19.2 hours
        assert scs_charge_time(10.0, 50.0, 19.2) == pytest.approx(7500.0)

    def test_rate_doubling_halves_time(self):
        assert scs_charge_time(10.0, 50.0, 38.4) == pytest.approx(3750.0)

    def test_overfull_rejected(self):
        with pytest.raises(ValueError):
            scs_charge_time(51.0, 50.0, 19.2)


def station_booked_until(t):
    s = ScsState(3, 19.2)
    s.book("first", 0.0, t)
    return s


class TestScsWaitingTime:
    def test_queue_outlasts_drive(self):
        # the queue ends 300 s from now, the EV arrives after 120 s
        assert station_booked_until(1300.0).wait_s(now=1000.0, drive_s=120.0) == 180.0

    def test_clamped_at_zero(self):
        assert station_booked_until(1100.0).wait_s(now=1000.0, drive_s=250.0) == 0.0

    def test_empty_queue(self):
        assert ScsState(3, 19.2).wait_s(now=0.0, drive_s=500.0) == 0.0


class TestScsBooking:
    @pytest.mark.parametrize("end_s", [100.0, 99.0])
    def test_a_booking_must_end_after_it_starts(self, end_s):
        with pytest.raises(ValueError, match="booking must end after it starts"):
            Booking("a", 100.0, end_s)

    def test_empty_ledger_accepts(self):
        s = ScsState(3, 19.2)
        assert s.book("a", 100.0, 200.0).accepted
        assert (s.bookings[0].start_s, s.bookings[0].end_s) == (100.0, 300.0)

    def test_second_arrival_queued_behind_first(self):
        s = ScsState(3, 19.2)
        s.book("a", 100.0, 200.0)
        assert s.wait_s(now=0.0, drive_s=100.0) == 200.0
        assert s.book("b", 100.0, 200.0).accepted
        assert [(b.ev, b.start_s, b.end_s) for b in s.bookings] == \
            [("a", 100.0, 300.0), ("b", 300.0, 500.0)]

    def test_booked_until_tracks_last_end(self):
        s = ScsState(3, 19.2)
        s.book("a", 0.0, 500.0)
        s.book("b", 500.0, 400.0)
        assert s.booked_until == 900.0
        assert s.wait_s(now=100.0, drive_s=300.0) == pytest.approx(500.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 5000), st.floats(1, 800)), max_size=25))
    def test_booking_storm_never_overlaps(self, slots):
        s = ScsState(0, 19.2)
        for k, (arrival, charge) in enumerate(slots):
            assert s.book(f"ev{k}", arrival, charge).accepted
            spans = sorted((b.start_s, b.end_s) for b in s.bookings)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1e5), st.floats(0, 5000), st.floats(1e-3, 8000),
                              st.integers(-4, 4), st.booleans()),
                    min_size=1, max_size=30))
    def test_priced_wait_is_the_granted_wait(self, steps):
        # half the EVs are aimed at booked_until to within a few ulps, where
        # round-off once made the ledger refuse the slot the router priced
        s = ScsState(0, 19.2)
        for k, (now, drive, charge, ulps, at_queue_end) in enumerate(steps):
            if at_queue_end and s.bookings:
                target = s.booked_until
                for _ in range(abs(ulps)):
                    target = math.nextafter(target, math.copysign(math.inf, ulps))
                now = max(0.0, target - drive)
            wait = s.wait_s(now, drive)
            assert s.book(f"ev{k}", now + drive, charge).accepted
            assert wait >= 0.0
            assert s.bookings[-1].start_s - (now + drive) == wait
        for b1, b2 in zip(s.bookings, s.bookings[1:]):
            assert b1.end_s <= b2.start_s


class TestMedWaiting:
    def test_charger_still_on_its_way(self):
        # charger needs 400 s to reach the point, EV only 250: wait 150
        g = ring_graph([400, 200, 150, 150])
        med = MedState(g, InductionParams(0.75, 40.0))
        wait, cycle_pass = med.waiting(med.points.index(1), 250.0, 1)
        assert wait == pytest.approx(150.0)
        assert cycle_pass == 0

    def test_charger_already_past_goes_next_cycle(self):
        # cum to the point is 200, EV arrives at 250: 200 + 900 - 250
        g = ring_graph([200, 300, 200, 200])
        med = MedState(g, InductionParams(0.75, 40.0))
        wait, cycle_pass = med.waiting(med.points.index(1), 250.0, 1)
        assert wait == pytest.approx(850.0)
        assert cycle_pass == 1

    def test_booked_span_pushes_a_full_cycle(self):
        g = ring_graph([400, 200, 150, 150])
        med = MedState(g, InductionParams(0.75, 40.0))
        med.segment_bookings[(1, 0)] = "someone"
        wait, cycle_pass = med.waiting(med.points.index(1), 250.0, 1)
        assert wait == pytest.approx(150.0 + 900.0)
        assert cycle_pass == 1

    def test_wait_tracks_charger_distance(self):
        # with an empty ledger the wait at each point is exactly the charger's
        # time to get there, so sorting by that distance sorts the waits
        g = ring_graph([110, 210, 310, 170])
        med = MedState(g, InductionParams(0.75, 40.0))
        t = 95.0
        rows = [(med.arrival_at(k, t) - t, med.waiting(k, t, 1)[0]) for k in range(4)]
        assert all(w >= 0 for _, w in rows)
        rows.sort()
        waits = [w for _, w in rows]
        assert waits == sorted(waits)

    def test_span_wrapping_cycle_start_books_next_pass_keys(self):
        g = ring_graph([100, 100, 100, 100])
        med = MedState(g, InductionParams(0.75, 40.0))
        keys = med.segment_keys(3, 0, 2)
        assert keys == ((3, 0), (0, 1))


class TestRequiredAttachSpan:
    """The router's attach-span planner, fed a fixed energy deficit: the EV
    meets the charger empty and must end the run holding ``deficit`` kWh."""

    def med(self, battery=200.0):
        # 600 s segments at 40 kW and 0.75 coupling: 5.0 kWh in, 0.23625 kWh
        # spent per segment (net 4.76375)
        g = ring_graph([600, 600, 600, 600], energy=0.23625)
        return MedState(g, InductionParams(0.75, 40.0), battery_kwh=battery)

    def span(self, deficit, med, start_idx):
        return _plan_med_span(med, start_idx, 0.0, 100.0, lambda node: deficit)

    def test_small_deficit_one_segment(self):
        ride = self.span(1.0, self.med(), 1)
        segments = [seg for seg, *_ in ride]
        _, eps, attach_s, _ = ride[-1]
        assert (segments[-1].j, len(segments)) == (2, 1)
        assert [(s.i, s.j) for s in segments] == [(1, 2)]
        assert attach_s == pytest.approx(600.0)
        assert eps == pytest.approx(4.76375)
        assert sum(s.induced_kwh for s in segments) == pytest.approx(5.0)

    def test_nine_kwh_needs_two_segments(self):
        ride = self.span(9.0, self.med(), 1)
        segments = [seg for seg, *_ in ride]
        eps = ride[-1][1]
        assert (segments[-1].j, len(segments)) == (3, 2)
        assert [(s.i, s.j) for s in segments] == [(1, 2), (2, 3)]
        assert eps == pytest.approx(2 * 4.76375)

    def test_zero_deficit_rejected(self):
        # an EV that can already finish from every cycle point is offered no
        # attach run, so there is no energy point to pick
        g = ring_graph([600, 600, 600, 600], energy=0.23625)
        med = MedState(g, InductionParams(0.75, 40.0))
        req = EvRequest("e", 0, 2, 50.0, 50.0)
        with pytest.raises(Stranded):
            find_best_energy_point(g, PathCache(g), req, 0, 50.0, 0.0,
                                   Infrastructure(med_units=[med]))

    def test_battery_limit(self):
        # the second segment would take the dispensed total to 10 kWh > 6 kWh
        assert self.span(9.0, self.med(battery=6.0), 1) is None

    def test_deficit_beyond_pass_budget(self):
        # two passes of four segments gain at most 8 * 4.76375
        med = self.med()
        assert med.max_passes == 2
        assert self.span(50.0, med, 0) is None


class TestMedBooking:
    """One energy budget per cycle pass: the ledger sums each pass's share."""

    def med(self, battery_kwh, start_s=0.0):
        # 600 s segments at 40 kW and 0.75 coupling: 5.0 kWh induced per segment
        g = ring_graph([600, 600, 600, 600], energy=0.23625)
        return MedState(g, InductionParams(0.75, 40.0), battery_kwh=battery_kwh,
                        start_s=start_s)

    def test_each_pass_has_its_own_budget(self):
        med = self.med(12.0)
        assert med.book_attach("a", ((0, 0), (1, 0)), 0.0, 1200.0).accepted
        # a third segment would take pass 0 to 15 kWh
        assert not med.book_attach("b", ((2, 0),), 1200.0, 1800.0).accepted
        for k in range(1, 5):
            assert med.book_attach(f"c{k}", ((2, k),), 2400.0 * k, 2400.0 * k + 600.0).accepted
        assert med.pass_dispensed == {0: 10.0, 1: 5.0, 2: 5.0, 3: 5.0, 4: 5.0}
        assert med.battery_kwh == 12.0

    def test_segment_conflict_rejected(self):
        g = ring_graph([100, 100, 100, 100])
        med = MedState(g, InductionParams(0.75, 40.0))
        assert med.book_attach("a", ((1, 0), (2, 0)), 0.0, 200.0).accepted
        assert not med.book_attach("b", ((2, 0),), 0.0, 100.0).accepted
        assert med.book_attach("b", ((2, 1),), 400.0, 500.0).accepted

    def test_a_span_across_the_cycle_start_is_charged_to_both_passes(self):
        med = self.med(12.0)
        assert med.book_attach("a", ((3, 0), (0, 1), (1, 1)), 1800.0, 3600.0).accepted
        assert med.pass_dispensed == {0: 5.0, 1: 10.0}
        assert not med.book_attach("b", ((2, 1),), 3600.0, 4200.0).accepted
        # pass 0 holds 5 kWh of the span, so 10 more would pass 12
        assert not med.book_attach("b", ((1, 0), (2, 0)), 600.0, 1800.0).accepted
        assert med.book_attach("b", ((1, 0),), 600.0, 1200.0).accepted
        assert med.pass_dispensed == {0: 10.0, 1: 10.0}

    @settings(max_examples=150, deadline=None)
    @given(battery=st.sampled_from((5.0, 12.0, 14.999999999, 200.0, math.inf)),
           start_s=st.sampled_from((0.0, 700.0)),
           tries=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 20000.0),
                                    st.integers(1, 6)), max_size=30))
    def test_waiting_picks_a_pass_the_ledger_accepts(self, battery, start_s, tries):
        # every span the wait search settles on books, and no pass ever
        # dispenses more than the battery
        med = self.med(battery, start_s)
        for k, (idx, now, n) in enumerate(tries):
            try:
                wait, pass_no = med.waiting(idx, now, n)
            except ValueError:  # one pass of the span alone needs more than the battery
                assert max(med._pass_shares(med.segment_keys(idx, 0, n)).values()) > battery
                continue
            keys = med.segment_keys(idx, pass_no, n)
            start = now + wait
            assert start >= start_s + med.cum_starts[idx] and pass_no >= 0
            assert med.book_attach(f"ev{k}", keys, start, start + 600.0 * n).accepted
        for spent in med.pass_dispensed.values():
            assert spent <= battery + 1e-9
