"""Tests for the wire-inductance (RLC) models."""

import math

import pytest

from repro.interconnect import (WireGeometry,
                                inductance_relevance_trend,
                                inductive_crosstalk_fraction,
                                mutual_inductance_per_length,
                                rlc_character,
                                self_inductance_per_length)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def geom():
    node = get_node("65nm")
    return WireGeometry.for_node(node, node.metal_layers)


class TestInductancePerLength:
    def test_order_of_magnitude(self, geom):
        """On-chip wire self-inductance: ~0.2-2 pH/um."""
        l_per = self_inductance_per_length(geom)
        assert 0.1e-6 < l_per < 3e-6   # H/m

    def test_farther_return_more_inductance(self, geom):
        near = self_inductance_per_length(geom,
                                          ground_distance=1e-6)
        far = self_inductance_per_length(geom,
                                         ground_distance=20e-6)
        assert far > near

    def test_mutual_below_self(self, geom):
        assert mutual_inductance_per_length(geom) \
            < self_inductance_per_length(geom)

    def test_mutual_falls_with_separation(self, geom):
        close = mutual_inductance_per_length(geom, separation=0.2e-6)
        apart = mutual_inductance_per_length(geom, separation=5e-6)
        assert apart < close

    def test_validation(self, geom):
        with pytest.raises(ValueError):
            self_inductance_per_length(geom, ground_distance=0.0)
        with pytest.raises(ValueError):
            mutual_inductance_per_length(geom, separation=-1e-6)


class TestRlcCharacter:
    def test_strong_driver_underdamped(self, geom):
        character = rlc_character(geom, 2e-3, driver_resistance=5.0)
        assert character.damping < 1.0
        assert character.overshoot_fraction > 0.0

    def test_weak_driver_overdamped(self, geom):
        character = rlc_character(geom, 2e-3,
                                  driver_resistance=10e3)
        assert character.damping > 1.0
        assert character.overshoot_fraction == 0.0
        assert not character.inductance_matters

    def test_impedance_order_of_magnitude(self, geom):
        """On-chip Z0: tens of ohms."""
        character = rlc_character(geom, 2e-3, driver_resistance=10.0)
        assert 10.0 < character.characteristic_impedance < 300.0

    def test_flight_time_scales_with_length(self, geom):
        short = rlc_character(geom, 1e-3, 10.0)
        long = rlc_character(geom, 4e-3, 10.0)
        def flight_time(character):
            return math.sqrt(character.inductance * character.capacitance)

        assert flight_time(long) == pytest.approx(4.0 * flight_time(short))

    def test_validation(self, geom):
        with pytest.raises(ValueError):
            rlc_character(geom, 0.0, 10.0)
        with pytest.raises(ValueError):
            rlc_character(geom, 1e-3, -1.0)


class TestInductiveCrosstalk:
    def test_fraction_bounded(self, geom):
        xtalk = inductive_crosstalk_fraction(geom, 3e-3, 20e-12,
                                             10.0, 1.0)
        assert 0.0 < xtalk <= 1.0

    def test_slower_edges_less_crosstalk(self, geom):
        fast = inductive_crosstalk_fraction(geom, 3e-3, 5e-12,
                                            10.0, 1.0)
        slow = inductive_crosstalk_fraction(geom, 3e-3, 5e-9,
                                            10.0, 1.0)
        assert slow < fast

    def test_validation(self, geom):
        with pytest.raises(ValueError):
            inductive_crosstalk_fraction(geom, 1e-3, 0.0, 10.0, 1.0)


class TestRelevanceTrend:
    def test_covers_all_nodes(self):
        rows = inductance_relevance_trend(all_nodes())
        assert len(rows) == len(all_nodes())

    def test_overshoot_worsens_with_scaling(self):
        """Faster drivers on reverse-scaled top metal: ringing grows
        -- the 'other signal integrity problems' of section 4.3."""
        rows = inductance_relevance_trend(all_nodes())
        assert rows[-1]["overshoot_pct"] > rows[0]["overshoot_pct"]

    def test_inductance_matters_on_global_wires(self):
        rows = inductance_relevance_trend(all_nodes())
        assert all(row["inductance_matters"] == 1.0 for row in rows)
