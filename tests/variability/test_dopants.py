"""Tests for random dopant fluctuation (Figs. 2-3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.variability import (DopantPlacementModel, channel_dopant_count,
                               dopant_count_sigma, dopant_count_vs_length,
                               vth_sigma_from_rdf)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestDopantCounting:
    def test_count_positive(self, node):
        assert channel_dopant_count(node) > 0

    def test_count_scales_with_area(self, node):
        one = channel_dopant_count(node, width=1e-7, length=1e-7)
        four = channel_dopant_count(node, width=2e-7, length=2e-7)
        assert four == pytest.approx(4.0 * one)

    def test_count_falls_steeply_with_node(self):
        """Fig. 2: from thousands of dopants to hundreds."""
        old = channel_dopant_count(get_node("350nm"))
        new = channel_dopant_count(get_node("32nm"))
        assert old / new > 10.0

    def test_few_dopants_below_45nm(self):
        """Fig. 2's low end: countable dopants."""
        assert channel_dopant_count(get_node("32nm")) < 500

    def test_sigma_is_sqrt_n(self):
        assert dopant_count_sigma(400.0) == pytest.approx(20.0)

    def test_sigma_rejects_negative(self):
        with pytest.raises(ValueError):
            dopant_count_sigma(-1.0)

    def test_rejects_bad_dimensions(self, node):
        with pytest.raises(ValueError):
            channel_dopant_count(node, width=-1e-7)

    def test_fig2_table_monotone(self, node):
        lengths = np.linspace(20e-9, 500e-9, 10)
        rows = dopant_count_vs_length(node, lengths)
        counts = [row["dopant_count"] for row in rows]
        assert counts == sorted(counts)

    def test_fig2_relative_sigma_worsens_at_small_l(self, node):
        rows = dopant_count_vs_length(node, [20e-9, 200e-9])
        assert rows[0]["relative_sigma"] > rows[1]["relative_sigma"]

    def test_quadratic_scaling_in_length(self, node):
        """Count ~ L^2 when W tracks L (the Fig. 2 x-axis)."""
        rows = dopant_count_vs_length(node, [50e-9, 100e-9])
        ratio = rows[1]["dopant_count"] / rows[0]["dopant_count"]
        assert ratio == pytest.approx(4.0, rel=0.05)


class TestRdfSigma:
    def test_sigma_vt_positive(self, node):
        assert vth_sigma_from_rdf(node) > 0

    def test_sigma_falls_with_area(self, node):
        small = vth_sigma_from_rdf(node, width=1e-7, length=1e-7)
        large = vth_sigma_from_rdf(node, width=4e-7, length=4e-7)
        assert small > large

    def test_sigma_grows_with_scaling(self):
        old = vth_sigma_from_rdf(get_node("180nm"))
        new = vth_sigma_from_rdf(get_node("32nm"))
        assert new > old

    def test_same_order_as_pelgrom(self, node):
        """RDF is the dominant A_VT contributor: within ~5x."""
        rdf = vth_sigma_from_rdf(node)
        pelgrom = node.sigma_vt(2 * node.feature_size)
        assert 0.2 < rdf / pelgrom < 5.0


class TestPlacementModel:
    def test_sample_reproducible_with_seed(self, node):
        a = DopantPlacementModel(node, seed=42).sample()
        b = DopantPlacementModel(node, seed=42).sample()
        assert a.count == b.count
        assert a.source_encroachment == b.source_encroachment
        assert a.drain_encroachment == b.drain_encroachment

    def test_dopants_inside_channel(self, node):
        sample = DopantPlacementModel(node, seed=1).sample()
        assert np.all(sample.x >= 0) and np.all(sample.x <= sample.length)
        assert np.all(sample.y >= 0) and np.all(sample.y <= sample.width)

    def test_count_statistics_poisson(self, node):
        counts = DopantPlacementModel(node, seed=3).sample_batch(
            400)["count"]
        assert counts.std(ddof=1) == pytest.approx(
            np.sqrt(counts.mean()), rel=0.25)

    def test_leff_statistics_fields(self, node):
        stats = DopantPlacementModel(node, seed=4)\
            .effective_length_statistics(50)
        assert stats["mean_leff_nm"] < stats["nominal_length_nm"]
        assert stats["sigma_leff_nm"] > 0

    def test_leff_statistics_requires_two(self, node):
        with pytest.raises(ValueError):
            DopantPlacementModel(node).effective_length_statistics(1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_any_seed_gives_physical_sample(self, seed):
        node = get_node("65nm")
        sample = DopantPlacementModel(node, seed=seed).sample()
        assert sample.count >= 0
