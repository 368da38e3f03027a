"""Tests for the compact MOSFET model (eq. 1, DIBL, alpha-power)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constants import thermal_voltage
from repro.devices import DeviceType, Mosfet
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def nmos(node):
    return Mosfet(node, width=2 * node.feature_size)


class TestConstruction:
    def test_default_length_is_feature_size(self, node):
        device = Mosfet(node, width=1e-6)
        assert device.length == pytest.approx(node.feature_size)

    def test_rejects_bad_dimensions(self, node):
        with pytest.raises(ValueError):
            Mosfet(node, width=-1e-6)

    def test_pmos_uses_hole_mobility(self, node):
        n = Mosfet(node, width=1e-6)
        p = Mosfet(node, width=1e-6, device_type=DeviceType.PMOS)
        assert p.beta < n.beta


class TestThreshold:
    def test_nominal_vth(self, nmos, node):
        assert nmos.vth() == pytest.approx(node.vth)

    def test_dibl_lowers_vth(self, nmos, node):
        assert nmos.vth(vds=node.vdd) \
            == pytest.approx(node.vth - node.dibl * node.vdd)

    def test_reverse_body_bias_raises_vth(self, nmos, node):
        assert nmos.vth(vbs=-0.5) > nmos.vth(vbs=0.0)

    def test_vth_offset_adds(self, node):
        shifted = Mosfet(node, width=1e-6, vth_offset=0.05)
        assert shifted.vth() == pytest.approx(node.vth + 0.05)

    def test_vth_vectorized(self, nmos):
        vds = np.array([0.0, 0.5, 1.0])
        result = nmos.vth(vds=vds)
        assert result.shape == (3,)
        assert np.all(np.diff(result) < 0)


class TestSubthreshold:
    def test_exponential_slope(self, nmos, node):
        """Eq. 1: one n*phi_t of V_GS changes the current by e."""
        phi_t = thermal_voltage(node.temperature)
        i1 = float(nmos.ids(0.10, 0.05))
        i2 = float(nmos.ids(0.10 + node.subthreshold_n * phi_t, 0.05))
        assert i2 / i1 == pytest.approx(math.e, rel=0.02)

    def test_swing_matches_formula(self, nmos, node):
        expected = node.subthreshold_n * thermal_voltage(
            node.temperature) * math.log(10.0)
        assert nmos.subthreshold_swing() == pytest.approx(expected)

    def test_swing_in_realistic_range(self, nmos):
        assert 0.060 < nmos.subthreshold_swing() < 0.110

    def test_off_current_grows_with_vds(self, nmos):
        """Fig. 1's DIBL effect: higher V_DS, higher leakage."""
        assert nmos.off_current(vds=1.0) > nmos.off_current(vds=0.3)

    def test_off_current_scales_with_width(self, node):
        narrow = Mosfet(node, width=0.2e-6).off_current()
        wide = Mosfet(node, width=0.4e-6).off_current()
        assert wide == pytest.approx(2.0 * narrow, rel=1e-6)

    def test_longer_channel_leaks_less(self, node):
        """I_0 inversely proportional to L (paper, section 2.1)."""
        short = Mosfet(node, width=1e-6)
        long = Mosfet(node, width=1e-6, length=2 * node.feature_size)
        assert long.off_current() < short.off_current()

    def test_zero_vds_conducts_nothing(self, nmos):
        assert float(nmos.ids(0.0, 0.0)) == pytest.approx(0.0, abs=1e-18)


class TestStrongInversion:
    def test_on_current_positive(self, nmos):
        assert nmos.on_current() > 0

    def test_saturation_current_grows_with_vgs(self, nmos, node):
        low = float(nmos.ids(0.6, node.vdd))
        high = float(nmos.ids(1.0, node.vdd))
        assert high > low

    def test_linear_region_grows_with_vds(self, nmos, node):
        i1 = float(nmos.ids(node.vdd, 0.05))
        i2 = float(nmos.ids(node.vdd, 0.10))
        assert i2 > i1

    def test_current_continuous_at_vth(self, nmos, node):
        """The weak/strong blend must not jump at V_T."""
        vth = float(nmos.vth(vds=0.5))
        below = float(nmos.ids(vth - 1e-6, 0.5))
        above = float(nmos.ids(vth + 1e-6, 0.5))
        assert above == pytest.approx(below, rel=0.01)

    def test_on_off_ratio_large(self, nmos):
        assert nmos.on_current() / nmos.off_current() > 1e3

    def test_alpha_power_exponent(self, node):
        """Current ~ overdrive^alpha in saturation (DIBL-corrected)."""
        device = Mosfet(node, width=1e-6)
        vth_eff = float(device.vth(vds=node.vdd))
        alpha = node.alpha_power
        ov1, ov2 = 0.4, 0.8
        i1 = float(device.ids(vth_eff + ov1, node.vdd)) \
            - float(device.ids(vth_eff, node.vdd))
        i2 = float(device.ids(vth_eff + ov2, node.vdd)) \
            - float(device.ids(vth_eff, node.vdd))
        assert i2 / i1 == pytest.approx((ov2 / ov1) ** alpha, rel=0.05)

    @settings(max_examples=30)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_current_never_negative(self, vgs, vds):
        device = Mosfet(get_node("65nm"), width=1e-6)
        assert float(device.ids(vgs, vds)) >= 0.0

    @settings(max_examples=30)
    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_current_monotone_in_vgs(self, vgs):
        device = Mosfet(get_node("65nm"), width=1e-6)
        assert float(device.ids(vgs + 0.05, 0.6)) \
            >= float(device.ids(vgs, 0.6))


class TestSmallSignal:
    def test_gm_positive_in_saturation(self, nmos, node):
        assert nmos.gm(node.vdd, node.vdd) > 0

    def test_gds_positive(self, nmos, node):
        assert nmos.gds(node.vdd, node.vdd / 2) > 0

    def test_gm_grows_with_width(self, node):
        narrow = Mosfet(node, width=0.2e-6)
        wide = Mosfet(node, width=2e-6)
        assert wide.gm(node.vdd, node.vdd) \
            > narrow.gm(node.vdd, node.vdd)


class TestCapacitanceAndMismatch:

    def test_mismatch_sigma_pelgrom(self, node):
        small = Mosfet(node, width=2 * node.feature_size)
        big = Mosfet(node, width=8 * node.feature_size)
        assert small.sigma_vth_mismatch() == pytest.approx(
            2.0 * big.sigma_vth_mismatch())
