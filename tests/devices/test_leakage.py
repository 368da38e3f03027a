"""Tests for the leakage models: eqs. 1 and 2 of the paper."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.constants import thermal_voltage
from repro.devices import (device_leakage, dibl_effective_vth,
                           gate_leakage_current, gate_leakage_per_gate,
                           subthreshold_current)
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestSubthresholdEquation:
    """Direct transcriptions of eq. 1."""

    def test_exponential_in_vth(self):
        phi_t = thermal_voltage(300.0)
        n = 1.4
        i1 = subthreshold_current(1e-6, 0.3, n=n)
        i2 = subthreshold_current(1e-6, 0.3 - n * phi_t, n=n)
        assert i2 / i1 == pytest.approx(math.e)

    def test_proportional_to_i0(self):
        assert subthreshold_current(2e-6, 0.3) \
            == pytest.approx(2.0 * subthreshold_current(1e-6, 0.3))

    def test_vgs_raises_current(self):
        assert subthreshold_current(1e-6, 0.3, vgs=0.1) \
            > subthreshold_current(1e-6, 0.3, vgs=0.0)

    def test_vectorized(self):
        vth = np.array([0.2, 0.3, 0.4])
        result = subthreshold_current(1e-6, vth)
        assert result.shape == (3,)
        assert np.all(np.diff(result) < 0)

    @given(st.floats(min_value=0.05, max_value=0.7),
           st.floats(min_value=0.05, max_value=0.7))
    def test_lower_vth_always_leaks_more(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert subthreshold_current(1e-6, lo) \
            >= subthreshold_current(1e-6, hi)


class TestDibl:
    def test_linear_in_vds(self):
        assert dibl_effective_vth(0.3, 0.08, 1.0) \
            == pytest.approx(0.3 - 0.08)

    def test_zero_vds_no_effect(self):
        assert dibl_effective_vth(0.3, 0.08, 0.0) == pytest.approx(0.3)


class TestGateLeakageEquation:
    """Direct transcriptions of eq. 2."""

    def test_zero_at_zero_bias(self):
        assert gate_leakage_current(1e-6, 0.0, 2e-9, 1e-6, 6e10) == 0.0

    def test_thinner_oxide_leaks_exponentially_more(self):
        thick = gate_leakage_current(1e-6, 1.0, 2.0e-9, 1e-6, 6e10)
        thin = gate_leakage_current(1e-6, 1.0, 1.5e-9, 1e-6, 6e10)
        assert thin / thick > math.exp(6e10 * 0.4e-9) * 0.3

    def test_proportional_to_width(self):
        one = gate_leakage_current(1e-6, 1.0, 2e-9, 1e-6, 6e10)
        two = gate_leakage_current(2e-6, 1.0, 2e-9, 1e-6, 6e10)
        assert two == pytest.approx(2.0 * one)

    def test_area_form_with_length(self):
        per_w = gate_leakage_current(1e-6, 1.0, 2e-9, 1e-6, 6e10)
        per_wl = gate_leakage_current(1e-6, 1.0, 2e-9, 1e-6, 6e10,
                                      length=0.5)
        assert per_wl == pytest.approx(0.5 * per_w)

    def test_rejects_bad_tox(self):
        with pytest.raises(ValueError):
            gate_leakage_current(1e-6, 1.0, 0.0, 1e-6, 6e10)

    def test_monotone_in_voltage_above_turn_on(self):
        levels = [gate_leakage_current(1e-6, v, 1.6e-9, 1e-6, 6e10)
                  for v in (0.6, 0.8, 1.0, 1.2)]
        assert levels == sorted(levels)


class TestDeviceLeakage:
    def test_budget_total(self, node):
        budget = device_leakage(node, 1e-6)
        assert budget.total == pytest.approx(
            budget.subthreshold + budget.gate)

    def test_power_at_vdd(self, node):
        budget = device_leakage(node, 1e-6)
        assert budget.power(node.vdd) == pytest.approx(
            budget.total * node.vdd)

    def test_vth_offset_cuts_subthreshold(self, node):
        base = device_leakage(node, 1e-6).subthreshold
        high_vt = device_leakage(node, 1e-6,
                                 vth_offset=0.1).subthreshold
        assert high_vt < base / 5.0

    def test_reverse_body_bias_cuts_subthreshold(self, node):
        base = device_leakage(node, 1e-6).subthreshold
        biased = device_leakage(node, 1e-6, vbs=-0.5).subthreshold
        assert biased < base

    def test_gate_leakage_relevant_only_at_thin_oxide(self):
        old = device_leakage(get_node("350nm"), 1e-6)
        new = device_leakage(get_node("65nm"), 1e-6)
        assert old.gate / max(old.subthreshold, 1e-30) \
            < new.gate / new.subthreshold * 10


class TestGateLevelAggregates:
    def test_per_gate_budget_positive(self, node):
        budget = gate_leakage_per_gate(node)
        assert budget.subthreshold > 0
        assert budget.gate > 0

    def test_stack_effect_reduces_subthreshold(self, node):
        inv = gate_leakage_per_gate(node, fanin=1)
        nand3 = gate_leakage_per_gate(node, fanin=3)
        assert nand3.subthreshold < inv.subthreshold
