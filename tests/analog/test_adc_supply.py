"""Tests for the ADC survey (Fig. 6 overlay) and eq. 5 (Fig. 7)."""

import math

import pytest

from repro.analog import (SURVEY, analog_power_trend,
                          digital_power_trend, headroom_trend, limit_gap,
                          minimum_adc_power, mismatch_limited_power,
                          power_ratio, resolution_speed_frontier,
                          sample_synthetic_survey, survey_vs_limits)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


class TestSurvey:
    def test_survey_nonempty_and_varied(self):
        assert len(SURVEY) >= 15
        architectures = {design.architecture for design in SURVEY}
        assert {"flash", "pipeline", "sar", "sigma-delta"} <= architectures

    def test_points_projection(self):
        points = [design.to_tradeoff_point() for design in SURVEY]
        assert len(points) == len(SURVEY)
        assert all(p.figure_of_merit > 0 for p in points)

    def test_designs_above_thermal_limit(self, node):
        """No physical converter beats kT."""
        rows = survey_vs_limits(node)
        assert all(row["margin_over_thermal"] > 1.0 for row in rows)

    def test_designs_cluster_near_mismatch_limit(self, node):
        """Fig. 6's red squares: closest to the mismatch line."""
        rows = survey_vs_limits(node)
        margins = sorted(row["margin_over_mismatch"] for row in rows)
        median = margins[len(margins) // 2]
        assert median < limit_gap(node)


class TestMinimumAdcPower:
    def test_calibration_removes_mismatch_tax(self, node):
        uncal = minimum_adc_power(node, 1e6, 12.0, calibrated=False)
        cal = minimum_adc_power(node, 1e6, 12.0, calibrated=True)
        assert cal < uncal

    def test_frontier_monotone(self, node):
        rows = resolution_speed_frontier(node, 1e-3,
                                         [8.0, 10.0, 12.0, 14.0])
        rates = [row["max_sample_rate_Hz"] for row in rows]
        assert rates == sorted(rates, reverse=True)

    def test_frontier_rejects_bad_budget(self, node):
        with pytest.raises(ValueError):
            resolution_speed_frontier(node, 0.0, [10.0])

    def test_synthetic_survey_margins_bounded(self, node):
        designs = sample_synthetic_survey(node, n_designs=20, seed=0,
                                          margin_range=(2.0, 30.0))
        from repro.analog import mismatch_constant
        limit = mismatch_constant(node)
        for design in designs:
            margin = design.to_tradeoff_point().figure_of_merit / limit
            assert 1.9 < margin < 31.0


class TestEquation5:
    def test_power_ratio_definition(self):
        """Direct transcription: P1/P2 = (1/m) * (tox1/tox2)."""
        n1, n2 = get_node("250nm"), get_node("65nm")
        m = n1.vdd / n2.vdd
        expected = (1.0 / m) * (n1.tox / n2.tox)
        assert power_ratio(n1, n2) == pytest.approx(expected)

    def test_eq5_near_unity_across_roadmap(self):
        """The paper's conclusion: 'no real benefit' -- the ratio stays
        within a small factor of 1 for every real transition."""
        nodes = all_nodes()
        for older, newer in zip(nodes, nodes[1:]):
            ratio = power_ratio(older, newer)
            assert 0.5 < ratio < 2.0

    def test_identity(self, node):
        assert power_ratio(node, node) == pytest.approx(1.0)


class TestFig7:
    def test_actual_power_flat_to_rising(self):
        """The red curve: no decrease below ~130 nm."""
        rows = analog_power_trend(all_nodes(), normalize_to="350nm")
        by_name = {row["node"]: row for row in rows}
        assert by_name["65nm"]["power_actual_rel"] >= 0.9
        assert by_name["32nm"]["power_actual_rel"] \
            >= by_name["130nm"]["power_actual_rel"] * 0.9

    def test_matching_only_power_falls(self):
        """The hypothetical without the supply penalty."""
        rows = analog_power_trend(all_nodes(), normalize_to="350nm")
        series = [row["power_matching_only_rel"] for row in rows]
        assert series == sorted(series, reverse=True)

    def test_digital_contrast_falls_steeply(self):
        rows = digital_power_trend(all_nodes())
        assert rows[-1]["digital_power_rel"] < 0.1

    def test_mismatch_limited_power_positive(self, node):
        assert mismatch_limited_power(node, 1e8, 10.0) > 0

    def test_empty_nodes(self):
        assert analog_power_trend([]) == []


class TestHeadroom:
    def test_cascoding_dies_with_supply(self):
        """Section 4.1: 'circuit techniques like cascoding ... become
        no longer possible'."""
        rows = {row["node"]: row for row in headroom_trend(all_nodes())}
        assert rows["350nm"]["cascode_possible"]
        assert not rows["45nm"]["cascode_possible"]

    def test_stackable_devices_monotone_decreasing(self):
        rows = headroom_trend(all_nodes())
        stacks = [row["stackable_devices"] for row in rows]
        assert stacks == sorted(stacks, reverse=True)

    def test_swing_fraction_shrinks(self):
        rows = headroom_trend(all_nodes())
        assert rows[-1]["swing_fraction"] < rows[0]["swing_fraction"]
