"""Tests for the gate-delay model and Fig. 4 variability analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import capacitance
from repro.digital import (DelayModel, StaticTimingAnalyzer,
                           delay_variability_trend, energy_delay_product,
                           fo4_delay_model, fo4_load, random_logic)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def model(node):
    return fo4_delay_model(node)


class TestDelayModel:
    def test_delay_positive(self, model):
        assert model.delay() > 0

    def test_fo4_realistic_range(self, model):
        """FO4 at 65 nm: a handful of ps in this trend model."""
        assert 1e-12 < model.delay() < 50e-12

    def test_higher_vth_slower(self, model, node):
        assert model.delay(vth=node.vth + 0.05) > model.delay()

    def test_lower_vdd_slower(self, model, node):
        assert model.delay(vdd=0.8 * node.vdd) > model.delay()

    def test_rejects_vdd_below_vth(self, model, node):
        with pytest.raises(ValueError):
            model.delay(vdd=node.vth / 2.0)

    def test_sensitivity_formula(self, model, node):
        expected = node.alpha_power / (node.vdd - node.vth)
        assert model.delay_sensitivity() == pytest.approx(expected)

    def test_sensitivity_matches_finite_difference(self, model):
        """Analytic alpha/(VDD-VT) vs the model's actual derivative."""
        base = model.delay()
        delta = 1e-4
        measured = (model.delay(vth=model.node.vth + delta) - base) \
            / (base * delta)
        assert measured == pytest.approx(
            model.delay_sensitivity(), rel=0.02)

    def test_spread_worst_case_above_nominal(self, model):
        spread = model.delay_spread(sigma_vth=0.02)
        assert spread["slow_s"] > spread["nominal_s"] > spread["fast_s"]
        assert spread["worst_over_nominal"] > 1.0

    def test_spread_rejects_negative_sigma(self, model):
        with pytest.raises(ValueError):
            model.delay_spread(sigma_vth=-0.01)

    def test_monte_carlo_delays_distribution(self, model):
        delays = model.monte_carlo_delays(0.02, n_samples=300, seed=0)
        assert delays.shape == (300,)
        assert delays.std() > 0
        # Mean near nominal delay.
        assert delays.mean() == pytest.approx(model.delay(), rel=0.1)

    def test_second_analysis_computes_no_capacitance(self, node,
                                                      monkeypatch):
        """Each cell's self-load is kept per node and drive width, so a
        second scalar STA of one netlist runs no device model."""
        netlist = random_logic(node, n_gates=60, seed=4)
        calls = []
        device_capacitances = capacitance.device_capacitances
        monkeypatch.setattr(
            capacitance, "device_capacitances",
            lambda *args: calls.append(args) or device_capacitances(*args))
        first = StaticTimingAnalyzer(netlist).analyze()
        before = len(calls)
        second = StaticTimingAnalyzer(netlist).analyze()
        assert len(calls) == before
        assert second.critical_delay == first.critical_delay
        assert second.critical_path == first.critical_path

    def test_fo4_load_is_four_inputs(self, node):
        width = 2 * node.feature_size
        from repro.devices import inverter_input_capacitance
        assert fo4_load(node, width) == pytest.approx(
            4.0 * inverter_input_capacitance(node, width))


class TestFig4Trend:
    """The Fig. 4 reproduction: delay sensitivity grows with scaling."""

    def test_sensitivity_monotone_across_nodes(self):
        rows = delay_variability_trend(all_nodes(), delta_vth=0.05)
        sens = [row["sensitivity_per_V"] for row in rows]
        assert sens == sorted(sens)

    def test_delay_increase_monotone(self):
        rows = delay_variability_trend(all_nodes(), delta_vth=0.05)
        increase = [row["delay_increase_pct"] for row in rows]
        assert increase == sorted(increase)

    def test_50mv_meaningful_at_65nm(self):
        """The paper's introduction example: 50 mV on V_T = 200 mV-ish
        nodes is a first-order effect."""
        rows = {row["node"]: row for row in
                delay_variability_trend(all_nodes(), delta_vth=0.05)}
        assert rows["65nm"]["delay_increase_pct"] > 5.0
        assert rows["350nm"]["delay_increase_pct"] < 5.0

    def test_node_sigma_variant_grows_faster(self):
        """With each node's own sigma_VT the effect compounds."""
        rows = delay_variability_trend(all_nodes(), use_node_sigma=True)
        increase = [row["delay_increase_pct"] for row in rows]
        assert increase[-1] > increase[0]

    def test_fo4_falls_monotonically(self):
        rows = delay_variability_trend(all_nodes())
        fo4 = [row["fo4_delay_ps"] for row in rows]
        assert fo4 == sorted(fo4, reverse=True)


class TestEnergyDelayProduct:
    def test_fields_positive(self, node):
        edp = energy_delay_product(node)
        assert edp["delay_s"] > 0
        assert edp["energy_J"] > 0
        assert edp["edp_Js"] == pytest.approx(
            edp["delay_s"] * edp["energy_J"])

    def test_lower_vdd_lower_energy(self, node):
        nominal = energy_delay_product(node)
        low = energy_delay_product(node, vdd=0.8 * node.vdd)
        assert low["energy_J"] < nominal["energy_J"]
        assert low["delay_s"] > nominal["delay_s"]

    @settings(max_examples=20)
    @given(st.floats(min_value=0.7, max_value=1.2))
    def test_energy_scales_with_vdd_squared(self, factor):
        node = get_node("65nm")
        base = energy_delay_product(node)["energy_J"]
        scaled = energy_delay_product(
            node, vdd=factor * node.vdd)["energy_J"]
        assert scaled == pytest.approx(base * factor ** 2, rel=1e-6)
