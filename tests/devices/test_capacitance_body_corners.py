"""Tests for capacitances, body bias (VTCMOS) and process corners."""

import math

import pytest

from repro.devices import (Corner, InterDieSigmas, apply_corner,
                           body_bias_effectiveness, body_effect_gamma,
                           corner_spread_summary, device_capacitances,
                           inverter_input_capacitance,
                           inverter_self_load, junction_capacitance,
                           overlap_capacitance,
                           required_vsb_for_reduction, vth_with_body_bias,
                           worst_case_vth)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestCapacitances:
    def test_gate_cap_dominates(self, node):
        caps = device_capacitances(node, 1e-6)
        assert caps.gate > 0
        assert caps.input_capacitance > caps.gate

    def test_overlap_scales_with_width(self, node):
        assert overlap_capacitance(node, 2e-6) \
            == pytest.approx(2 * overlap_capacitance(node, 1e-6))

    def test_overlap_fraction_validated(self, node):
        with pytest.raises(ValueError):
            overlap_capacitance(node, 1e-6, overlap_fraction=1.5)

    def test_junction_cap_falls_with_reverse_bias(self, node):
        assert junction_capacitance(node, 1e-6, bias=1.0) \
            < junction_capacitance(node, 1e-6, bias=0.0)

    def test_inverter_input_cap_includes_pmos(self, node):
        only_n = device_capacitances(node, 1e-6).input_capacitance
        inv = inverter_input_capacitance(node, 1e-6)
        assert inv > 2.0 * only_n

    def test_self_load_positive(self, node):
        assert inverter_self_load(node, 1e-6) > 0

    def test_rejects_bad_dimensions(self, node):
        with pytest.raises(ValueError):
            device_capacitances(node, -1e-6)


class TestBodyBias:
    def test_gamma_positive(self, node):
        assert body_effect_gamma(node) > 0

    def test_linear_model_matches_body_factor(self, node):
        delta = vth_with_body_bias(node, 0.5) - node.vth
        assert delta == pytest.approx(node.body_factor * 0.5)

    def test_physical_model_monotone(self, node):
        v1 = vth_with_body_bias(node, 0.3, use_physical=True)
        v2 = vth_with_body_bias(node, 0.6, use_physical=True)
        assert node.vth < v1 < v2

    def test_physical_model_rejects_deep_forward_bias(self, node):
        with pytest.raises(ValueError):
            vth_with_body_bias(node, -2.0, use_physical=True)

    def test_effectiveness_shrinks_with_scaling(self):
        """Tab D / section 3.2: the central VTCMOS claim."""
        results = body_bias_effectiveness(all_nodes(), vsb=0.5)
        deltas = [r.delta_vth for r in results]
        reductions = [r.leakage_reduction for r in results]
        assert deltas == sorted(deltas, reverse=True)
        assert reductions == sorted(reductions, reverse=True)
        assert reductions[0] / reductions[-1] > 10.0

    def test_effectiveness_rejects_negative_vsb(self):
        with pytest.raises(ValueError):
            body_bias_effectiveness([get_node("65nm")], vsb=-0.1)

    def test_required_vsb_diverges_with_scaling(self):
        """Same 10x leakage cut needs ever more body voltage."""
        old = required_vsb_for_reduction(get_node("350nm"), 10.0)
        new = required_vsb_for_reduction(get_node("45nm"), 10.0)
        assert new > 2.0 * old

    def test_required_vsb_rejects_bad_reduction(self, node):
        with pytest.raises(ValueError):
            required_vsb_for_reduction(node, 0.5)


class TestCorners:
    def test_tt_is_identity(self, node):
        tt = apply_corner(node, Corner.TT)
        assert tt.vth == pytest.approx(node.vth)
        assert tt.feature_size == pytest.approx(node.feature_size)

    def test_ss_is_slow(self, node):
        ss = apply_corner(node, Corner.SS)
        assert ss.vth > node.vth
        assert ss.feature_size > node.feature_size

    def test_ff_is_fast(self, node):
        ff = apply_corner(node, Corner.FF)
        assert ff.vth < node.vth

    def test_worst_case_vth(self, node):
        sigmas = InterDieSigmas(vth=0.02)
        assert worst_case_vth(node, sigmas, n_sigma=3.0) \
            == pytest.approx(node.vth + 0.06)

    def test_corner_spread_summary(self, node):
        rows = corner_spread_summary(node)
        by_corner = {row["corner"]: row for row in rows}
        assert by_corner["FF"]["ion_uA"] > by_corner["SS"]["ion_uA"]
        assert by_corner["FF"]["ioff_nA"] > by_corner["SS"]["ioff_nA"]
