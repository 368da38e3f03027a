"""Tests for line-edge roughness and Pelgrom matching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.variability import (LerParameters, current_spread_from_ler,
                               effective_length_profile, generate_edge,
                               offset_sigma_diff_pair, relative_ler_trend,
                               sigma_delta_beta, sigma_delta_vth)
from repro.technology import all_nodes, get_node


def area_for_matching(node, sigma_vth_target):
    """Gate area W*L [m^2] that reaches ``sigma_vth_target``: the
    Pelgrom inversion ``sigma_delta_vth`` must undo."""
    return (node.avt / sigma_vth_target) ** 2


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestLerEdges:
    def test_edge_rms_near_sigma(self):
        params = LerParameters(sigma=1.5e-9)
        rng = np.random.default_rng(0)
        edges = np.concatenate([
            generate_edge(params, 2e-6, 512, rng) for _ in range(30)])
        assert float(np.std(edges)) == pytest.approx(1.5e-9, rel=0.2)

    def test_edge_zero_mean(self):
        rng = np.random.default_rng(1)
        edge = generate_edge(LerParameters(), 5e-6, 1024, rng)
        assert abs(float(edge.mean())) < 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LerParameters(sigma=-1e-9)
        with pytest.raises(ValueError):
            generate_edge(LerParameters(), -1e-6)
        with pytest.raises(ValueError):
            generate_edge(LerParameters(), 1e-6, n_points=2)

    def test_profile_mean_near_drawn_length(self, node):
        rng = np.random.default_rng(2)
        profile = effective_length_profile(
            LerParameters(), node.feature_size, 1e-6, 256, rng)
        assert float(profile.mean()) == pytest.approx(
            node.feature_size, rel=0.15)

    def test_current_spread_grows_with_scaling(self):
        """Same roughness, relatively more important (section 2.4)."""
        old = current_spread_from_ler(get_node("350nm"), seed=0,
                                      n_devices=80)
        new = current_spread_from_ler(get_node("45nm"), seed=0,
                                      n_devices=80)
        assert new["sigma_current_rel"] > old["sigma_current_rel"]

    def test_relative_trend_monotone(self):
        rows = relative_ler_trend(all_nodes())
        rel = [row["relative_sigma"] for row in rows]
        assert rel == sorted(rel)
        # Constant absolute roughness across nodes.
        assert all(row["ler_sigma_nm"] == rows[0]["ler_sigma_nm"]
                   for row in rows)


class TestPelgrom:
    def test_area_law(self, node):
        s1 = sigma_delta_vth(node, 1e-6, 1e-6)
        s2 = sigma_delta_vth(node, 2e-6, 2e-6)
        assert s1 == pytest.approx(2.0 * s2)

    def test_value_at_one_square_micron(self, node):
        expected = node.avt / 1e-6
        assert sigma_delta_vth(node, 1e-6, 1e-6) \
            == pytest.approx(expected)

    def test_distance_term_adds_in_quadrature(self, node):
        near = sigma_delta_vth(node, 1e-6, 1e-6, distance=0.0)
        far = sigma_delta_vth(node, 1e-6, 1e-6, distance=1e-3,
                              distance_coefficient=1e-3)
        assert far == pytest.approx(
            math.sqrt(near ** 2 + 1e-6 ** 2), rel=1e-6)

    def test_beta_matching(self, node):
        assert sigma_delta_beta(node, 1e-6, 1e-6) == pytest.approx(
            node.abeta / 1e-6)

    def test_rejects_bad_dimensions(self, node):
        with pytest.raises(ValueError):
            sigma_delta_vth(node, 0.0, 1e-6)

    def test_area_for_matching_inverse(self, node):
        area = area_for_matching(node, 1e-3)
        width = math.sqrt(area)
        assert sigma_delta_vth(node, width, width) \
            == pytest.approx(1e-3, rel=1e-6)

    def test_matching_area_shrinks_slower_than_min_device(self):
        """Section 4.1: analog area does not follow scaling."""
        ratios = [area_for_matching(node, 1e-3) / node.feature_size ** 2
                  for node in all_nodes()]
        assert ratios == sorted(ratios)
        # A_VT improves ~5.6x while L^2 shrinks ~120x: the matched
        # area, in minimum devices, grows by several times.
        assert ratios[-1] / ratios[0] > 3.0

    def test_offset_dominated_by_vth_term(self, node):
        full = offset_sigma_diff_pair(node, 10e-6, 1e-6)
        vt_only = offset_sigma_diff_pair(node, 10e-6, 1e-6,
                                         include_beta=False)
        assert full == pytest.approx(vt_only, rel=0.1)

    @given(st.floats(min_value=1e-7, max_value=1e-4),
           st.floats(min_value=1e-7, max_value=1e-5))
    def test_sigma_positive_property(self, width, length):
        node = get_node("65nm")
        assert sigma_delta_vth(node, width, length) > 0
