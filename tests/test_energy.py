import pytest
from hypothesis import given, strategies as st

from medsim.energy import (InductionParams, VehicleParams, air_force, drive_power,
                           induced_energy, rolling_force, segment_energy)


def vp(**kw):
    base = dict(mass_kg=1500.0, mu=0.01, drag_c=0.35, area_m2=2.0,
                air_density=1.2, efficiency=0.75, capacity_kwh=50.0)
    base.update(kw)
    return VehicleParams(**base)


class TestRollingForce:
    def test_zero_mu(self):
        assert rolling_force(vp(mu=0.0)) == 0.0

    def test_hand_value(self):
        # 0.01 * 1500 * 9.8
        assert rolling_force(vp()) == pytest.approx(147.0)

    def test_linear_in_mass(self):
        assert rolling_force(vp(mass_kg=3000.0)) == pytest.approx(2 * rolling_force(vp()))


class TestAirForce:
    def test_zero_speed(self):
        assert air_force(vp(), 0.0) == 0.0

    def test_hand_value(self):
        # 0.5 * 2 * 0.35 * 1.2 * 100
        assert air_force(vp(), 10.0) == pytest.approx(42.0)

    def test_quadratic_scaling(self):
        assert air_force(vp(), 20.0) == pytest.approx(4 * air_force(vp(), 10.0))

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            air_force(vp(), -1.0)


class TestDrivePower:
    def test_zero_speed(self):
        assert drive_power(vp(), 0.0) == 0.0

    def test_hand_value(self):
        # 0.75 * (147 + 42) * 10
        assert drive_power(vp(), 10.0) == pytest.approx(1417.5)

    def test_unit_efficiency_identity(self):
        p = vp(efficiency=1.0)
        assert drive_power(p, 10.0) == pytest.approx(
            (rolling_force(p) + air_force(p, 10.0)) * 10.0)


class TestSegmentEnergy:
    def test_hand_value(self):
        # 1417.5 W for 600 s = 850500 J = 0.23625 kWh
        assert segment_energy(vp(), 10.0, 600.0) == pytest.approx(0.23625)

    def test_zero_speed(self):
        assert segment_energy(vp(), 0.0, 600.0) == 0.0

    def test_additivity_over_split(self):
        whole = segment_energy(vp(), 12.0, 900.0)
        parts = segment_energy(vp(), 12.0, 400.0) + segment_energy(vp(), 12.0, 500.0)
        assert whole == pytest.approx(parts)

    def test_nonpositive_dwell_rejected(self):
        with pytest.raises(ValueError):
            segment_energy(vp(), 10.0, 0.0)

    @given(u=st.floats(0.0, 40.0), du=st.floats(0.0, 5.0))
    def test_monotone_in_speed(self, u, du):
        assert segment_energy(vp(), u + du, 300.0) >= segment_energy(vp(), u, 300.0)

    @given(m=st.floats(500.0, 3000.0), dm=st.floats(0.0, 500.0),
           a=st.floats(1.0, 4.0), da=st.floats(0.0, 1.0))
    def test_monotone_in_mass_and_area(self, m, dm, a, da):
        lo = segment_energy(vp(mass_kg=m, area_m2=a), 12.0, 300.0)
        hi = segment_energy(vp(mass_kg=m + dm, area_m2=a + da), 12.0, 300.0)
        assert hi >= lo

    @given(t=st.floats(1.0, 2000.0), dt=st.floats(0.0, 500.0))
    def test_monotone_in_dwell(self, t, dt):
        assert segment_energy(vp(), 10.0, t + dt) >= segment_energy(vp(), 10.0, t)


class TestInducedEnergy:
    def test_zero_contact(self):
        assert induced_energy(0.0, InductionParams(0.75, 40.0)) == 0.0

    def test_hand_value(self):
        # (600/3600) * 0.75 * 40
        assert induced_energy(600.0, InductionParams(0.75, 40.0)) == pytest.approx(5.0)

    def test_matches_published_ten_minute_range(self):
        # 8 kWh per 10 min at C=0.96, 50 kW; at 35 kWh per 100 miles that is
        # the published 22.85 miles for a mobile charger
        e = induced_energy(600.0, InductionParams(0.96, 50.0))
        assert e == pytest.approx(8.0)
        assert e * 100.0 / 35.0 == pytest.approx(22.85, abs=0.05)

    def test_negative_contact_rejected(self):
        with pytest.raises(ValueError):
            induced_energy(-1.0, InductionParams(0.75, 40.0))


class TestNetSegmentEnergy:
    """Consumption minus inductive gain over one attached segment."""

    @given(u=st.floats(1.0, 15.0), t=st.floats(30.0, 1200.0),
           c=st.floats(0.7, 0.8), p=st.floats(20.0, 50.0))
    def test_attached_always_gains_at_urban_speeds(self, u, t, c, p):
        # the transfer rate beats the consumption rate across the default bands
        assert segment_energy(vp(), u, t) < induced_energy(t, InductionParams(c, p))

    def test_ten_minute_band_brackets_published_claim(self):
        lo = induced_energy(600.0, InductionParams(1.0, 20.0))
        hi = induced_energy(600.0, InductionParams(1.0, 50.0))
        assert lo == pytest.approx(10.0 / 3.0)
        assert hi == pytest.approx(25.0 / 3.0)
        assert abs(lo - 3.0) / 3.0 < 0.12
        assert abs(hi - 8.0) / 8.0 < 0.12


class TestValidation:
    def test_drag_band(self):
        with pytest.raises(ValueError):
            vp(drag_c=0.1)
        with pytest.raises(ValueError):
            vp(drag_c=1.5)

    def test_efficiency_band(self):
        with pytest.raises(ValueError):
            vp(efficiency=1.2)
        with pytest.raises(ValueError):
            vp(efficiency=0.0)

    def test_induction_band(self):
        with pytest.raises(ValueError):
            InductionParams(1.2, 40.0)
        with pytest.raises(ValueError):
            InductionParams(0.75, 0.0)

    @pytest.mark.parametrize("field", ["mass_kg", "mu", "drag_c", "area_m2", "air_density",
                                       "efficiency", "capacity_kwh"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_vehicle_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            vp(**{field: value})

    @pytest.mark.parametrize("c_ind,p_ind_kw", [
        (float("nan"), 40.0), (0.75, float("nan")), (0.75, float("inf")),
        (float("inf"), 40.0), (0.75, float("-inf")),
    ], ids=["c-nan", "p-nan", "p-inf", "c-inf", "p-minus-inf"])
    def test_induction_rejects_non_finite_values(self, c_ind, p_ind_kw):
        with pytest.raises(ValueError):
            InductionParams(c_ind, p_ind_kw)
