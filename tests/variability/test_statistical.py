"""Tests for the inter/intra-die Monte Carlo framework."""

import numpy as np
import pytest

from repro.variability import (MonteCarloSampler, VariationSpec,
                               YieldResult, monte_carlo_yield,
                               relative_variability_trend)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestVariationSpec:
    def test_intra_sigma_from_node_avt(self, node):
        spec = VariationSpec()
        sigma = spec.intra_sigma_vth(node, 1e-6, 1e-6)
        assert sigma == pytest.approx(node.avt / 1e-6)

    def test_explicit_intra_sigma_derated_by_area(self, node):
        spec = VariationSpec(vth_intra=0.03)
        min_area = node.feature_size ** 2 * 2.0
        big = spec.intra_sigma_vth(node, 10e-6, 1e-6)
        assert big == pytest.approx(
            0.03 * np.sqrt(min_area / 1e-11))


class TestSampler:
    def test_reproducible_with_seed(self, node):
        a = MonteCarloSampler(node, seed=5).sample_die()
        b = MonteCarloSampler(node, seed=5).sample_die()
        assert a.vth_global == pytest.approx(b.vth_global)

    def test_inter_die_statistics(self, node):
        spec = VariationSpec(vth_inter=0.02)
        sampler = MonteCarloSampler(node, spec, seed=6)
        shifts = [sampler.sample_die().vth_global for _ in range(800)]
        assert float(np.std(shifts)) == pytest.approx(0.02, rel=0.1)

    def test_device_sampling_includes_intra(self, node):
        sampler = MonteCarloSampler(
            node, VariationSpec(vth_inter=0.0), seed=8)
        die = sampler.sample_die()
        devices = [die.sample_device(2 * node.feature_size).vth_offset
                   for _ in range(500)]
        expected = VariationSpec().intra_sigma_vth(
            node, 2 * node.feature_size, node.feature_size)
        assert float(np.std(devices)) == pytest.approx(expected, rel=0.15)

    def test_sample_dies_count(self, node):
        assert len(MonteCarloSampler(node, seed=1).sample_dies(7)) == 7

    def test_sample_dies_rejects_zero(self, node):
        with pytest.raises(ValueError):
            MonteCarloSampler(node).sample_dies(0)


class TestYield:
    def test_always_passing_metric(self, node):
        sampler = MonteCarloSampler(node, seed=9)
        result = monte_carlo_yield(sampler, lambda die: 0.0, 1.0,
                                   n_dies=50)
        assert result.yield_fraction == 1.0
        assert result.sigma_level > 3.0

    def test_always_failing_metric(self, node):
        sampler = MonteCarloSampler(node, seed=10)
        result = monte_carlo_yield(sampler, lambda die: 2.0, 1.0,
                                   n_dies=50)
        assert result.yield_fraction == 0.0

    def test_lower_is_fail_direction(self, node):
        sampler = MonteCarloSampler(node, seed=11)
        result = monte_carlo_yield(sampler, lambda die: 2.0, 1.0,
                                   n_dies=20, upper_is_fail=False)
        assert result.yield_fraction == 1.0

    def test_realistic_metric_yield_between_bounds(self, node):
        """Yield of a VT-threshold metric lands strictly between."""
        sampler = MonteCarloSampler(
            node, VariationSpec(vth_inter=0.02), seed=12)
        result = monte_carlo_yield(
            sampler, lambda die: die.vth_global, 0.0, n_dies=400)
        assert 0.3 < result.yield_fraction < 0.7

    def test_rejects_zero_dies(self, node):
        with pytest.raises(ValueError):
            monte_carlo_yield(MonteCarloSampler(node),
                              lambda die: 0.0, 1.0, n_dies=0)


class TestHelpers:
    def test_relative_variability_trend_monotone(self):
        rows = relative_variability_trend(all_nodes())
        fractions = [row["sigma_over_overdrive"] for row in rows]
        assert fractions == sorted(fractions)
        # The paper's example: 50 mV on a 200 mV VT is severe.
        last = rows[-1]
        assert last["sigma_over_vth"] > 0.05
