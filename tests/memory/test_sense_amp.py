"""Tests for the sense-amplifier offset model."""

import pytest
from scipy.stats import norm

from repro.memory import SenseAmp, read_access_with_offset
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestSenseAmp:
    def test_offset_follows_pelgrom(self, node):
        small = SenseAmp.sized_for(node, area_factor=1.0)
        big = SenseAmp.sized_for(node, area_factor=4.0)
        assert small.offset_sigma == pytest.approx(
            2.0 * big.offset_sigma)

    def test_required_swing_scales_with_confidence(self, node):
        sense = SenseAmp.sized_for(node)
        assert sense.required_swing(6.0) == pytest.approx(
            1.2 * sense.required_swing(5.0))

    def test_sense_yield_at_required_swing(self, node):
        sense = SenseAmp.sized_for(node)
        swing = sense.required_swing(sigma_level=3.0)
        # Probability one sense fires correctly at ``swing``.
        assert norm.cdf(swing / sense.offset_sigma) == pytest.approx(
            0.99865, abs=1e-3)

    def test_validation(self, node):
        with pytest.raises(ValueError):
            SenseAmp(node, input_width=1e-9, input_length=1e-9)
        with pytest.raises(ValueError):
            SenseAmp.sized_for(node).required_swing(-1.0)


class TestTrends:
    def test_swing_fraction_of_vdd_grows(self):
        """Both jaws close: sigma up, V_DD down."""
        fractions = [SenseAmp.sized_for(node).required_swing(5.0)
                     / node.vdd for node in all_nodes()]
        assert fractions == sorted(fractions)
        assert fractions[-1] > 3.0 * fractions[0]

    def test_access_time_report_fields(self, node):
        report = read_access_with_offset(node)
        assert report["access_time_ns"] > 0
        assert report["required_swing_mV"] \
            > report["offset_sigma_mV"]

    def test_higher_confidence_slower_access(self, node):
        relaxed = read_access_with_offset(node, sigma_level=3.0)
        strict = read_access_with_offset(node, sigma_level=6.0)
        assert strict["access_time_ns"] >= relaxed["access_time_ns"]
