"""Tests for the TechnologyNode data model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.technology import TechnologyNode, get_node


def make_node(**overrides):
    params = dict(
        name="test", feature_size=65e-9, vdd=1.0, vth=0.22,
        tox=1.6e-9, wire_pitch=180e-9, channel_doping=5e24)
    params.update(overrides)
    return TechnologyNode(**params)


class TestConstruction:
    def test_basic_construction(self):
        node = make_node()
        assert node.feature_size == pytest.approx(65e-9)

    @pytest.mark.parametrize("field", [
        "feature_size", "vdd", "vth", "tox", "wire_pitch",
        "channel_doping"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            make_node(**{field: 0.0})

    def test_rejects_vth_above_vdd(self):
        with pytest.raises(ValueError):
            make_node(vth=1.2, vdd=1.0)

    def test_default_junction_depth_is_third_of_length(self):
        node = make_node()
        assert node.junction_depth == pytest.approx(65e-9 / 3.0)

    def test_frozen(self):
        node = make_node()
        with pytest.raises(Exception):
            node.vdd = 5.0


class TestDerivedQuantities:
    def test_cox_value(self):
        node = make_node(tox=2e-9)
        # eps0 * 3.9 / 2nm ~ 17.3 fF/um^2
        assert node.cox == pytest.approx(1.726e-2, rel=1e-2)

    def test_overdrive(self):
        assert make_node().overdrive == pytest.approx(0.78)

    def test_fermi_potential_positive_and_below_bandgap(self):
        phi = make_node().fermi_potential
        assert 0.3 < phi < 0.6

    def test_depletion_depth_shrinks_with_doping(self):
        lo = make_node(channel_doping=1e24)
        hi = make_node(channel_doping=1e25)
        assert hi.depletion_depth < lo.depletion_depth

    def test_sigma_vt_pelgrom_scaling(self):
        node = make_node()
        small = node.sigma_vt(130e-9, 65e-9)
        large = node.sigma_vt(4 * 130e-9, 65e-9)
        assert small == pytest.approx(2.0 * large)

    def test_sigma_vt_default_length(self):
        node = make_node()
        assert node.sigma_vt(130e-9) == pytest.approx(
            node.sigma_vt(130e-9, node.feature_size))

    def test_sigma_vt_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_node().sigma_vt(0.0)

    def test_summary_keys(self):
        summary = make_node().summary()
        assert summary["feature_size_nm"] == pytest.approx(65.0)
        assert "sigma_vt_min_mV" in summary


class TestScaled:
    def test_full_scaling_divides_voltages(self):
        node = make_node().scaled(2.0)
        assert node.vdd == pytest.approx(0.5)
        assert node.vth == pytest.approx(0.11)
        assert node.feature_size == pytest.approx(32.5e-9)

    def test_constant_voltage_scaling_keeps_voltages(self):
        node = make_node().scaled(2.0, full_scaling=False)
        assert node.vdd == pytest.approx(1.0)
        assert node.feature_size == pytest.approx(32.5e-9)

    def test_doping_increases(self):
        node = make_node().scaled(2.0)
        assert node.channel_doping == pytest.approx(1e25)

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            make_node().scaled(-1.0)

    @given(st.floats(min_value=1.1, max_value=3.0))
    def test_scaled_node_stays_valid(self, s):
        node = make_node().scaled(s)
        assert node.vth < node.vdd
        assert node.feature_size > 0


class TestTemperature:
    def test_hot_node_has_lower_vth(self):
        node = make_node()
        hot = node.at_temperature(358.0)
        assert hot.vth < node.vth
        assert hot.temperature == pytest.approx(358.0)

    def test_hot_node_has_lower_mobility(self):
        node = make_node()
        hot = node.at_temperature(400.0)
        assert hot.mobility_n < node.mobility_n

    def test_round_trip_restores_vth(self):
        node = make_node()
        back = node.at_temperature(358.0).at_temperature(
            node.temperature)
        assert back.vth == pytest.approx(node.vth)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            make_node().at_temperature(0.0)


class TestOverrides:
    def test_with_overrides_changes_field(self):
        node = make_node().with_overrides(vth=0.3)
        assert node.vth == pytest.approx(0.3)

    def test_with_overrides_preserves_rest(self):
        node = make_node().with_overrides(vth=0.3)
        assert node.vdd == pytest.approx(1.0)


class TestSerialization:
    def test_dict_roundtrip(self):
        node = make_node()
        clone = TechnologyNode.from_dict(node.to_dict())
        assert clone == node

    def test_library_nodes_roundtrip(self):
        clone = TechnologyNode.from_dict(get_node("65nm").to_dict())
        assert clone == get_node("65nm")

    def test_unknown_key_rejected(self):
        data = make_node().to_dict()
        data["finfet_fins"] = 3
        with pytest.raises(ValueError, match="unknown node parameters"):
            TechnologyNode.from_dict(data)

    def test_invalid_values_still_validated(self):
        data = make_node().to_dict()
        data["vdd"] = -1.0
        with pytest.raises(ValueError):
            TechnologyNode.from_dict(data)
