"""Tests for statistical analog design (parametric yield)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analog import (OtaDesign, OtaYieldAnalyzer, offset_yield,
                          yield_vs_area)
from repro.variability import sigma_delta_vth
from repro.technology import get_node


def area_for_matching(node, sigma_vth_target):
    """Gate area W*L [m^2] that reaches ``sigma_vth_target``."""
    return (node.avt / sigma_vth_target) ** 2


@pytest.fixture(scope="module")
def node():
    return get_node("180nm")


@pytest.fixture(scope="module")
def design():
    return OtaDesign(input_width=20e-6, input_length=0.5e-6,
                     load_width=10e-6, load_length=1e-6,
                     tail_current=100e-6)


class TestOffsetYield:
    def test_three_sigma_value(self, node):
        """Limit at exactly 3 sigma -> the textbook 99.73 %."""
        sigma = sigma_delta_vth(node, 1e-6, 1e-6)
        assert offset_yield(node, 1e-6, 1e-6, 3.0 * sigma) \
            == pytest.approx(0.9973, abs=1e-3)

    def test_bigger_device_better_yield(self, node):
        limit = 2e-3
        small = offset_yield(node, 2e-6, 1e-6, limit)
        big = offset_yield(node, 8e-6, 4e-6, limit)
        assert big > small

    def test_rejects_bad_limit(self, node):
        with pytest.raises(ValueError):
            offset_yield(node, 1e-6, 1e-6, 0.0)

    @given(st.floats(min_value=0.5e-3, max_value=20e-3))
    def test_yield_in_unit_interval(self, limit):
        node = get_node("180nm")
        y = offset_yield(node, 4e-6, 1e-6, limit)
        assert 0.0 < y <= 1.0


class TestYieldVsArea:
    def test_monotone_improvement(self, node):
        rows = yield_vs_area(node)
        yields = [row["yield"] for row in rows]
        assert yields == sorted(yields)

    def test_sigma_follows_pelgrom(self, node):
        rows = yield_vs_area(node, area_factors=(1, 4))
        assert rows[0]["sigma_offset_mV"] == pytest.approx(
            2.0 * rows[1]["sigma_offset_mV"], rel=1e-6)

    def test_area_for_yield_inverse(self, node):
        """A 3 mV offset at 3 sigma: the Pelgrom area for 1 mV sigma."""
        area = area_for_matching(node, 3e-3 / 3.0)
        width = math.sqrt(area)
        sigma = sigma_delta_vth(node, width, width)
        assert 3e-3 / sigma == pytest.approx(3.0, rel=1e-6)

    def test_smaller_node_needs_relatively_more(self):
        """Same offset spec costs more minimum-device-areas at 65 nm."""
        old = get_node("350nm")
        new = get_node("65nm")
        ratio_old = area_for_matching(old, 1e-3) / old.feature_size ** 2
        ratio_new = area_for_matching(new, 1e-3) / new.feature_size ** 2
        assert ratio_new > ratio_old


class TestMonteCarloYield:
    def test_reproducible(self, node, design):
        spec = {"gain_db": 30.0, "offset_sigma": 5e-3}
        a = OtaYieldAnalyzer(node, design, 2e-12, seed=1).run(
            spec, n_samples=60)
        b = OtaYieldAnalyzer(node, design, 2e-12, seed=1).run(
            spec, n_samples=60)
        assert a.overall_yield == b.overall_yield

    def test_loose_spec_high_yield(self, node, design):
        report = OtaYieldAnalyzer(node, design, 2e-12, seed=2).run(
            {"gain_db": 10.0, "offset_sigma": 50e-3}, n_samples=80)
        assert report.overall_yield > 0.95

    def test_impossible_spec_zero_yield(self, node, design):
        report = OtaYieldAnalyzer(node, design, 2e-12, seed=3).run(
            {"gain_db": 200.0}, n_samples=40)
        assert report.overall_yield == 0.0

    def test_offset_spec_partial_yield(self, node, design):
        """An offset limit near 1 sigma: yield well inside (0, 1)."""
        analyzer = OtaYieldAnalyzer(node, design, 2e-12, seed=4)
        sigma = sigma_delta_vth(node, design.input_width,
                                design.input_length)
        report = analyzer.run({"offset_sigma": sigma}, n_samples=200)
        assert 0.4 < report.overall_yield < 0.9

    def test_overall_below_each_individual(self, node, design):
        analyzer = OtaYieldAnalyzer(node, design, 2e-12, seed=5)
        sigma = sigma_delta_vth(node, design.input_width,
                                design.input_length)
        report = analyzer.run({"gain_db": 35.0,
                               "offset_sigma": 1.5 * sigma},
                              n_samples=120)
        for value in report.per_spec_yield.values():
            assert report.overall_yield <= value + 1e-9

    def test_rejects_zero_samples(self, node, design):
        with pytest.raises(ValueError):
            OtaYieldAnalyzer(node, design, 2e-12).run({}, n_samples=0)
