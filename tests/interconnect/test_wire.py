"""Tests for the wire RC models (eq. 3)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.interconnect import (WireGeometry, capacitance_per_length,
                                resistance_per_length, wire_delay,
                                wire_energy)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def geom():
    return WireGeometry.for_node(get_node("100nm"), layer=1)


class TestGeometry:
    def test_width_plus_spacing_is_pitch(self, geom):
        assert geom.width + geom.spacing == pytest.approx(geom.pitch)

    def test_thickness_from_aspect_ratio(self, geom):
        assert geom.thickness == pytest.approx(
            geom.aspect_ratio * geom.width)

    def test_for_node_upper_layers_wider(self):
        node = get_node("100nm")
        m1 = WireGeometry.for_node(node, 1)
        m5 = WireGeometry.for_node(node, 5)
        assert m5.pitch > m1.pitch

    def test_for_node_rejects_bad_layer(self):
        node = get_node("100nm")
        with pytest.raises(ValueError):
            WireGeometry.for_node(node, 0)
        with pytest.raises(ValueError):
            WireGeometry.for_node(node, node.metal_layers + 1)

    @pytest.mark.parametrize("kwargs", [
        {"pitch": -1e-7}, {"pitch": 1e-7, "width_fraction": 1.5},
        {"pitch": 1e-7, "aspect_ratio": 0.0}])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            WireGeometry(**kwargs)


class TestEquation3:
    def test_quadratic_in_length(self, geom):
        """The defining property of eq. 3."""
        assert wire_delay(geom, 2e-3) == pytest.approx(
            4.0 * wire_delay(geom, 1e-3))

    def test_zero_length_zero_delay(self, geom):
        assert wire_delay(geom, 0.0) == 0.0

    def test_rejects_negative_length(self, geom):
        with pytest.raises(ValueError):
            wire_delay(geom, -1e-3)

    def test_scaled_wire_constant_delay(self):
        """Eq. 3's punchline: same length-in-pitches, same delay
        (same materials)."""
        base = get_node("130nm")
        n_pitches = 2000.0
        g1 = WireGeometry(pitch=base.wire_pitch,
                          dielectric_k=3.0, resistivity=1.7e-8)
        g2 = WireGeometry(pitch=base.wire_pitch / 2.0,
                          dielectric_k=3.0, resistivity=1.7e-8)
        d1 = wire_delay(g1, n_pitches * g1.pitch)
        d2 = wire_delay(g2, n_pitches * g2.pitch)
        assert d2 == pytest.approx(d1, rel=1e-9)

    def test_fixed_length_wire_slows_with_scaling(self):
        """Busses keep their length: absolute delay grows."""
        d_old = wire_delay(WireGeometry.for_node(get_node("180nm")), 5e-3)
        d_new = wire_delay(WireGeometry.for_node(get_node("45nm")), 5e-3)
        assert d_new > d_old

    def test_miller_factor_increases_delay(self, geom):
        assert wire_delay(geom, 1e-3, miller_factor=2.0) \
            > wire_delay(geom, 1e-3, miller_factor=1.0)

    @given(st.floats(min_value=1e-6, max_value=1e-2))
    def test_delay_positive_property(self, length):
        geom = WireGeometry.for_node(get_node("100nm"))
        assert wire_delay(geom, length) > 0


class TestParasitics:
    def test_resistance_inverse_to_cross_section(self):
        thin = WireGeometry(pitch=100e-9, aspect_ratio=1.0)
        thick = WireGeometry(pitch=100e-9, aspect_ratio=2.0)
        assert resistance_per_length(thin) == pytest.approx(
            2.0 * resistance_per_length(thick))

    def test_capacitance_grows_with_k(self):
        lo = WireGeometry(pitch=200e-9, dielectric_k=2.2)
        hi = WireGeometry(pitch=200e-9, dielectric_k=3.9)
        assert capacitance_per_length(hi) > capacitance_per_length(lo)

    def test_capacitance_order_of_magnitude(self, geom):
        """Wire capacitance is famously ~0.2 pF/mm in any node."""
        c = capacitance_per_length(geom)
        assert 0.5e-10 < c < 5e-10

    def test_energy_cv2(self, geom):
        energy = wire_energy(geom, 1e-3, 1.2)
        c = capacitance_per_length(geom) * 1e-3
        assert energy == pytest.approx(c * 1.44)

    def test_energy_activity_weighted(self, geom):
        assert wire_energy(geom, 1e-3, 1.0, activity=0.5) \
            == pytest.approx(0.5 * wire_energy(geom, 1e-3, 1.0))

    def test_energy_rejects_negative(self, geom):
        with pytest.raises(ValueError):
            wire_energy(geom, -1.0, 1.0)


class TestDelayTable:
    def test_table_rows_and_monotone(self):
        geom = WireGeometry.for_node(get_node("100nm"), 1)
        delays = [wire_delay(geom, length)
                  for length in (1e-4, 1e-3, 5e-3)]
        assert delays == sorted(delays)
