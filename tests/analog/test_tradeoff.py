"""Tests for eq. 4: the speed-accuracy-power trade-off (Fig. 6)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analog import (TradeoffPoint, accuracy_from_bits, limit_gap,
                          minimum_power, mismatch_constant,
                          thermal_noise_constant, tradeoff_plane)
from repro.technology import all_nodes, get_node


def bits_from_accuracy(accuracy):
    """Inverse of ``accuracy_from_bits``: the reference it must undo."""
    return math.log2(accuracy / math.sqrt(1.5))


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


class TestAccuracyConversion:
    def test_ten_bits(self):
        assert accuracy_from_bits(10.0) == pytest.approx(
            1024.0 * math.sqrt(1.5))

    def test_roundtrip(self):
        assert bits_from_accuracy(accuracy_from_bits(12.0)) \
            == pytest.approx(12.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            accuracy_from_bits(0.0)

    @given(st.floats(min_value=1.0, max_value=20.0))
    def test_roundtrip_property(self, bits):
        assert bits_from_accuracy(accuracy_from_bits(bits)) \
            == pytest.approx(bits, rel=1e-9)


class TestLimits:
    def test_thermal_constant_technology_independent(self):
        """Eq. 4 thermal: depends only on temperature."""
        assert thermal_noise_constant(300.0) \
            == thermal_noise_constant(300.0)
        assert thermal_noise_constant(400.0) \
            > thermal_noise_constant(300.0)

    def test_thermal_constant_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            thermal_noise_constant(300.0, efficiency=0.0)

    def test_mismatch_constant_depends_on_avt(self, node):
        better = node.with_overrides(avt=node.avt / 2.0)
        assert mismatch_constant(better) == pytest.approx(
            mismatch_constant(node) / 4.0)

    def test_mismatch_above_thermal_by_decades(self, node):
        """The Fig. 6 gap: ~2 decades."""
        gap = limit_gap(node)
        assert 10.0 < gap < 1000.0

    def test_gap_closes_slowly_with_scaling(self):
        gaps = [limit_gap(node) for node in all_nodes()]
        assert gaps[-1] < gaps[0]

    def test_minimum_power_proportional_to_speed(self, node):
        accuracy = accuracy_from_bits(10.0)
        p1 = minimum_power(1e6, accuracy, node)
        p2 = minimum_power(2e6, accuracy, node)
        assert p2["mismatch_W"] == pytest.approx(
            2.0 * p1["mismatch_W"])

    def test_minimum_power_quadratic_in_accuracy(self, node):
        p1 = minimum_power(1e6, 100.0, node)
        p2 = minimum_power(1e6, 200.0, node)
        assert p2["thermal_W"] == pytest.approx(4.0 * p1["thermal_W"])

    def test_binding_limit_is_max(self, node):
        limits = minimum_power(1e8, accuracy_from_bits(10), node)
        assert limits["binding_W"] == max(limits["thermal_W"],
                                          limits["mismatch_W"])

    def test_rejects_bad_inputs(self, node):
        with pytest.raises(ValueError):
            minimum_power(0.0, 100.0, node)


class TestTradeoffPoint:
    def test_fom_definition(self):
        point = TradeoffPoint("x", speed=1e6, n_bits=10.0, power=1e-3)
        expected = 1e-3 / (1e6 * accuracy_from_bits(10.0) ** 2)
        assert point.figure_of_merit == pytest.approx(expected)


class TestPlane:
    def test_parallel_loglog_lines(self, node):
        """Both limits are straight lines ~ speed; constant ratio."""
        speeds = np.logspace(5, 9, 9)
        rows = tradeoff_plane(node, speeds.tolist())
        ratios = [row["mismatch_limit_W"] / row["thermal_limit_W"]
                  for row in rows]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_power_trend_improves_with_matching(self):
        """Mismatch-limited power falls as A_VT improves (the half of
        the argument *before* the supply penalty)."""
        accuracy = accuracy_from_bits(10.0)
        limits = [minimum_power(100e6, accuracy, node)
                  for node in all_nodes()]
        powers = [row["mismatch_W"] for row in limits]
        assert powers == sorted(powers, reverse=True)
        # Thermal limit stays constant across nodes.
        thermals = {row["thermal_W"] for row in limits}
        assert len(thermals) == 1
