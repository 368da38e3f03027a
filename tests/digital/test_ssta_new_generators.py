"""Tests for SSTA and the fast-adder/decoder/comparator generators."""

import math

import numpy as np
import pytest

from repro.digital import (StatisticalTimingAnalyzer, StaticTimingAnalyzer,
                           corner_vs_statistical_margin,
                           depth_averaging_study, kogge_stone_adder,
                           ripple_adder)
from repro.variability import VariationSpec
from repro.technology import get_node

from netlists import decoder, equality_comparator


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def ks_adder(node):
    return kogge_stone_adder(node, width=8)


class TestKoggeStone:
    @pytest.mark.parametrize("a,b", [(0, 0), (255, 255), (170, 85),
                                     (1, 255), (123, 45)])
    def test_arithmetic(self, ks_adder, a, b):
        inputs = {f"a{i}": bool((a >> i) & 1) for i in range(8)}
        inputs.update({f"b{i}": bool((b >> i) & 1) for i in range(8)})
        values = ks_adder.evaluate(inputs)
        total = sum(1 << i for i in range(8) if values[f"s{i}"])
        total += 256 if values["cout"] else 0
        assert total == a + b

    def test_log_depth_beats_ripple(self, node, ks_adder):
        """The whole point of the prefix tree."""
        ripple = ripple_adder(node, width=8)
        assert StaticTimingAnalyzer(ks_adder).analyze().critical_delay \
            < StaticTimingAnalyzer(ripple).analyze().critical_delay

    def test_more_gates_than_ripple(self, node, ks_adder):
        """Speed is bought with area -- the classic trade."""
        assert ks_adder.gate_count() \
            > ripple_adder(node, width=8).gate_count()

    def test_rejects_width_one(self, node):
        with pytest.raises(ValueError):
            kogge_stone_adder(node, width=1)


class TestDecoder:
    @pytest.mark.parametrize("code", range(8))
    def test_one_hot(self, node, code):
        dec = decoder(node, n_select=3)
        inputs = {f"sel{i}": bool((code >> i) & 1) for i in range(3)}
        values = dec.evaluate(inputs)
        outputs = [values[f"out{i}"] for i in range(8)]
        assert outputs.count(True) == 1
        assert outputs.index(True) == code

    def test_rejects_bad_select(self, node):
        with pytest.raises(ValueError):
            decoder(node, n_select=0)
        with pytest.raises(ValueError):
            decoder(node, n_select=7)


class TestComparator:
    def test_equal_and_unequal(self, node):
        cmp = equality_comparator(node, width=8)
        same = {f"a{i}": bool((42 >> i) & 1) for i in range(8)}
        same.update({f"b{i}": bool((42 >> i) & 1) for i in range(8)})
        assert cmp.evaluate(same)["equal"] is True
        diff = dict(same)
        diff["b3"] = not diff["b3"]
        assert cmp.evaluate(diff)["equal"] is False

    def test_rejects_width_one(self, node):
        with pytest.raises(ValueError):
            equality_comparator(node, width=1)


class TestSsta:
    def test_reproducible(self, ks_adder):
        a = StatisticalTimingAnalyzer(ks_adder, seed=3).run(30)
        b = StatisticalTimingAnalyzer(ks_adder, seed=3).run(30)
        assert np.allclose(a.samples, b.samples)

    def test_mean_near_or_above_nominal(self, ks_adder):
        result = StatisticalTimingAnalyzer(ks_adder, seed=0).run(80)
        assert result.mean > 0.95 * result.nominal_delay

    def test_quantile_ordering(self, ks_adder):
        result = StatisticalTimingAnalyzer(ks_adder, seed=1).run(80)
        assert result.quantile(0.5) <= result.quantile(0.99)

    def test_yield_monotone_in_period(self, ks_adder):
        result = StatisticalTimingAnalyzer(ks_adder, seed=2).run(80)
        tight = np.mean(result.samples <= result.mean)
        loose = np.mean(result.samples <= result.mean + 5 * result.sigma)
        assert loose >= tight
        assert loose == 1.0

    def test_criticality_probabilities(self, ks_adder):
        result = StatisticalTimingAnalyzer(ks_adder, seed=4).run(50)
        assert result.criticality
        assert all(0 < p <= 1 for p in result.criticality.values())

    def test_rejects_tiny_sample(self, ks_adder):
        with pytest.raises(ValueError):
            StatisticalTimingAnalyzer(ks_adder).run(1)

    def test_quantile_validation(self, ks_adder):
        result = StatisticalTimingAnalyzer(ks_adder, seed=5).run(20)
        with pytest.raises(ValueError):
            result.quantile(1.5)


class TestCornerVsStatistical:
    def test_corner_is_pessimistic(self, ks_adder):
        margins = corner_vs_statistical_margin(ks_adder,
                                               n_samples=80, seed=0)
        assert margins["pessimism_ratio"] > 1.0
        assert margins["corner_margin_pct"] \
            > margins["statistical_margin_pct"]

    def test_statistical_margin_positive(self, ks_adder):
        margins = corner_vs_statistical_margin(ks_adder,
                                               n_samples=80, seed=1)
        assert margins["statistical_margin_pct"] > 0.0


class TestDepthAveraging:
    def test_relative_sigma_falls_with_depth(self, node):
        rows = depth_averaging_study(node, depths=(4, 16, 64),
                                     n_samples=120, seed=0)
        rel = [row["sigma_over_mean"] for row in rows]
        assert rel == sorted(rel, reverse=True)

    def test_sqrt_scaling_approximately(self, node):
        """sigma/mean ~ 1/sqrt(depth): 16x depth -> ~4x tighter."""
        rows = depth_averaging_study(node, depths=(4, 64),
                                     n_samples=250, seed=1)
        ratio = rows[0]["sigma_over_mean"] / rows[1]["sigma_over_mean"]
        assert ratio == pytest.approx(4.0, rel=0.4)
