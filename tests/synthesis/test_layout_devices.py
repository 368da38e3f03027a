"""Tests for the layout data model and procedural device generators."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.synthesis import (DesignRules, Layout, LayoutCell, Placement,
                             Rect, capacitor_cell, matched_pair_cell,
                             mosfet_cell, resistor_cell)
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


@pytest.fixture(scope="module")
def rules(node):
    return DesignRules.for_node(node)


class TestRect:
    def test_edges_and_area(self):
        rect = Rect("metal1", 1.0, 2.0, 3.0, 4.0)
        assert rect.x2 == 4.0
        assert rect.y2 == 6.0
        assert rect.area == 12.0
        assert rect.center == (2.5, 4.0)

    def test_rejects_unknown_layer(self):
        with pytest.raises(ValueError, match="layer"):
            Rect("metal9", 0, 0, 1, 1)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            Rect("metal1", 0, 0, 0, 1)

    def test_translation(self):
        rect = Rect("poly", 0, 0, 1, 1).translated(5, 7)
        assert (rect.x, rect.y) == (5, 7)

    def test_mirror_preserves_area(self):
        rect = Rect("poly", 1, 0, 2, 3)
        mirrored = rect.mirrored_x(axis=5.0)
        assert mirrored.area == rect.area
        assert mirrored.x2 == pytest.approx(2 * 5.0 - rect.x)

    @given(st.floats(-10, 10), st.floats(-10, 10),
           st.floats(0.1, 5), st.floats(0.1, 5))
    def test_double_mirror_identity(self, x, y, w, h):
        rect = Rect("metal1", x, y, w, h)
        back = rect.mirrored_x(3.0).mirrored_x(3.0)
        assert back.x == pytest.approx(rect.x)
        assert back.width == pytest.approx(rect.width)


class TestPlacementAndLayout:
    def _cell(self):
        cell = LayoutCell("c")
        cell.rects.append(Rect("metal1", 0, 0, 2e-6, 1e-6))
        from repro.synthesis import Pin
        cell.pins.append(Pin("A", "metal1", 0.0, 0.5e-6))
        return cell

    def test_placement_translates_pins(self):
        placement = Placement(self._cell(), x=10e-6, y=5e-6)
        assert placement.pin_position("A") == (
            pytest.approx(10e-6), pytest.approx(5.5e-6))

    def test_mirrored_placement_flips_pin(self):
        placement = Placement(self._cell(), x=0.0, y=0.0, mirror=True)
        x, _ = placement.pin_position("A")
        assert x == pytest.approx(2e-6)

    def test_layout_overlap_check(self, rules):
        layout = Layout("t", rules)
        layout.add_instance("a", Placement(self._cell(), 0, 0))
        layout.add_instance("b", Placement(self._cell(), 1e-6, 0))
        assert layout.check_overlaps() == [("a", "b")]

    def test_layout_no_overlap_when_spaced(self, rules):
        layout = Layout("t", rules)
        layout.add_instance("a", Placement(self._cell(), 0, 0))
        layout.add_instance("b", Placement(self._cell(), 5e-6, 0))
        assert layout.check_overlaps() == []

    def test_duplicate_instance_rejected(self, rules):
        layout = Layout("t", rules)
        layout.add_instance("a", Placement(self._cell(), 0, 0))
        with pytest.raises(ValueError):
            layout.add_instance("a", Placement(self._cell(), 1, 1))

    def test_wirelength_hpwl(self, rules):
        layout = Layout("t", rules)
        layout.add_instance("a", Placement(self._cell(), 0, 0))
        layout.add_instance("b", Placement(self._cell(), 10e-6, 4e-6))
        layout.connect("n", [("a", "A"), ("b", "A")])
        assert layout.wirelength() == pytest.approx(14e-6)

    def test_text_and_svg_export(self, rules):
        layout = Layout("t", rules)
        layout.add_instance("a", Placement(self._cell(), 0, 0))
        assert "INST a" in layout.to_text()
        assert layout.to_svg().startswith("<svg")


class TestDeviceGenerators:
    def test_mosfet_has_required_pins(self, node):
        cell = mosfet_cell(node, "m1", width=10e-6)
        for pin in ("G", "S", "D", "B"):
            assert cell.pin(pin) is not None

    def test_mosfet_has_poly_and_active(self, node):
        cell = mosfet_cell(node, "m1", width=10e-6)
        layers = {rect.layer for rect in cell.rects}
        assert {"active", "poly", "contact", "metal1"} <= layers

    def test_pmos_gets_nwell(self, node):
        nmos = mosfet_cell(node, "m1", width=5e-6)
        pmos = mosfet_cell(node, "m2", width=5e-6, pmos=True)
        assert "nwell" not in {r.layer for r in nmos.rects}
        assert "nwell" in {r.layer for r in pmos.rects}

    def test_wide_device_gets_fingers(self, node):
        narrow = mosfet_cell(node, "m1", width=5e-6)
        wide = mosfet_cell(node, "m2", width=100e-6)
        n_poly_narrow = sum(1 for r in narrow.rects if r.layer == "poly")
        n_poly_wide = sum(1 for r in wide.rects if r.layer == "poly")
        assert n_poly_wide > n_poly_narrow

    def test_rejects_sub_feature_device(self, node):
        with pytest.raises(ValueError):
            mosfet_cell(node, "m1", width=1e-9)

    def test_matched_pair_has_abba_pattern(self, node):
        pair = matched_pair_cell(node, "p1", width=20e-6)
        for pin in ("GA", "GB", "SA", "SB", "DA", "DB"):
            assert pair.pin(pin) is not None
        # Four sub-devices worth of geometry.
        single = mosfet_cell(node, "m", width=10e-6)
        assert len(pair.rects) == pytest.approx(4 * len(single.rects))

    def test_capacitor_area_tracks_value(self, node):
        small = capacitor_cell(node, "c1", 0.5e-12)
        large = capacitor_cell(node, "c2", 2e-12)
        assert large.width > small.width
        assert large.pin("TOP").layer == "metal2"

    def test_capacitor_rejects_non_positive(self, node):
        with pytest.raises(ValueError):
            capacitor_cell(node, "c", 0.0)

    def test_resistor_scales_with_value(self, node):
        short = resistor_cell(node, "r1", 1e3)
        long = resistor_cell(node, "r2", 100e3)
        assert len(long.rects) > len(short.rects)
        assert short.pin("P") is not None
