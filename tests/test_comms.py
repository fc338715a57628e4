import pytest
from hypothesis import given, strategies as st

from medsim.comms import RadioParams, transmission_range


class TestTransmissionRange:
    def test_calibration_endpoints_exact(self):
        assert transmission_range(RadioParams(pth_dbm=-69.0)) == pytest.approx(130.0, abs=1e-9)
        assert transmission_range(RadioParams(pth_dbm=-85.0)) == pytest.approx(300.0, abs=1e-9)

    def test_interior_strictly_between(self):
        r = transmission_range(RadioParams(pth_dbm=-77.0))
        assert 130.0 < r < 300.0

    @given(st.floats(-85.0, -69.0), st.floats(0.0, 16.0))
    def test_monotone_decreasing_in_sensitivity(self, pth, bump):
        hi = min(-69.0, pth + bump)
        assert transmission_range(RadioParams(pth_dbm=pth)) >= \
            transmission_range(RadioParams(pth_dbm=hi)) - 1e-12

    def test_outside_band_rejected(self):
        with pytest.raises(ValueError):
            transmission_range(RadioParams(pth_dbm=-60.0))
        with pytest.raises(ValueError):
            transmission_range(RadioParams(pth_dbm=-90.0))

