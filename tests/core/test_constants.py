"""Tests for physical constants."""

import pytest

from repro.core import constants as c


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert c.thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_scales_linearly_with_temperature(self):
        assert c.thermal_voltage(600.0) == pytest.approx(
            2.0 * c.thermal_voltage(300.0))

    def test_default_is_room_temperature(self):
        assert c.thermal_voltage() == c.thermal_voltage(c.ROOM_TEMPERATURE)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -300.0])
    def test_rejects_non_positive_temperature(self, bad):
        with pytest.raises(ValueError):
            c.thermal_voltage(bad)


class TestKtEnergy:
    def test_room_temperature_value(self):
        assert c.kt_energy(300.0) == pytest.approx(4.14e-21, rel=1e-2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            c.kt_energy(0.0)
