"""Tests for power accounting, worst-case sizing and leakage management."""

import math

import pytest

from repro.digital import (analytic_power_estimate, apply_vtcmos_standby,
                           assign_dual_vth, insert_power_gating,
                           leakage_fraction_trend,
                           leakage_ratio_for_vth_delta, ripple_adder,
                           size_for_delay, stage_delay, stage_energy,
                           worst_case_energy_trend, worst_case_penalty)
from repro.devices import inverter_input_capacitance
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def adder(node):
    return ripple_adder(node, width=4)


class TestPowerReport:
    def test_breakdown_sums(self, node):
        report = analytic_power_estimate(node, 1000, 1e9)
        assert report.total == pytest.approx(
            report.dynamic + report.short_circuit + report.leakage)

    def test_dynamic_dominates_at_high_activity(self, node):
        report = analytic_power_estimate(node, 1000, 1e9, activity=0.5)
        assert report.dynamic > report.leakage

    def test_leakage_fraction_bounds(self, node):
        report = analytic_power_estimate(node, 1000, 1e9)
        assert 0 <= report.leakage_fraction < 1

    def test_analytic_estimate_scales_with_gates(self, node):
        one = analytic_power_estimate(node, 1000, 1e9)
        two = analytic_power_estimate(node, 2000, 1e9)
        assert two.total == pytest.approx(2.0 * one.total)

    def test_analytic_estimate_validation(self, node):
        with pytest.raises(ValueError):
            analytic_power_estimate(node, 0, 1e9)
        with pytest.raises(ValueError):
            analytic_power_estimate(node, 100, 1e9, activity=2.0)


class TestLeakageFractionTrend:
    """Tab B: the 'leakage can no longer be ignored' crossover."""

    def test_fraction_monotone_with_scaling(self):
        hot = [n.at_temperature(358.0) for n in all_nodes()]
        rows = leakage_fraction_trend(hot, frequency=1e9)
        fractions = [row["leakage_fraction"] for row in rows]
        assert fractions == sorted(fractions)

    def test_crossover_lands_near_65nm(self):
        hot = {n.name.split("@")[0]: n.at_temperature(358.0)
               for n in all_nodes()}
        rows = {row["node"].split("@")[0]: row for row in
                leakage_fraction_trend(list(hot.values()),
                                       frequency=1e9)}
        assert rows["65nm"]["leakage_fraction"] > 0.05
        assert rows["130nm"]["leakage_fraction"] < 0.05

    def test_cold_silicon_leaks_less(self):
        node = get_node("65nm")
        cold = leakage_fraction_trend([node], frequency=1e9)[0]
        hot = leakage_fraction_trend([node.at_temperature(358.0)],
                                     frequency=1e9)[0]
        assert hot["leakage_fraction"] > cold["leakage_fraction"]


class TestSizing:
    def test_wider_is_faster(self, node):
        load = 50e-15
        assert stage_delay(node, 4e-6, load) \
            < stage_delay(node, 1e-6, load)

    def test_wider_burns_more_energy(self, node):
        load = 50e-15
        assert stage_energy(node, 4e-6, load) \
            > stage_energy(node, 1e-6, load)

    def test_size_for_delay_meets_target(self, node):
        load = 50e-15
        target = 1.5 * stage_delay(node, 2e-6, load)
        result = size_for_delay(node, target, load)
        assert result.delay <= target * 1.001

    def test_higher_vth_needs_wider_device(self, node):
        load = 50e-15
        target = 1.5 * stage_delay(node, 2e-6, load)
        nominal = size_for_delay(node, target, load)
        slow = size_for_delay(node, target, load, vth=node.vth + 0.05)
        assert slow.width > nominal.width

    def test_unreachable_target_raises(self, node):
        with pytest.raises(ValueError, match="unreachable"):
            size_for_delay(node, 1e-15, 50e-15)

    def test_rejects_non_positive_target(self, node):
        with pytest.raises(ValueError):
            size_for_delay(node, 0.0, 50e-15)


class TestWorstCasePenalty:
    """Tab C: section 3.1's energy cost of margining."""

    def test_penalty_above_one(self, node):
        penalty = worst_case_penalty(node)
        assert penalty.energy_penalty > 1.0
        assert penalty.width_ratio > 1.0

    def test_trend_grows_with_scaling(self):
        rows = worst_case_energy_trend(all_nodes())
        penalties = [row["energy_penalty_pct"] for row in rows]
        assert penalties[-1] > penalties[0]

    def test_more_sigma_more_penalty(self, node):
        mild = worst_case_penalty(node, n_sigma=1.0)
        harsh = worst_case_penalty(node, n_sigma=4.0)
        assert harsh.energy_penalty > mild.energy_penalty

    def test_energy_delay_curve_monotone(self, node):
        import numpy as np
        base = worst_case_penalty(node).nominal.delay
        load = 8.0 * inverter_input_capacitance(node,
                                                2.0 * node.feature_size)
        energies = [size_for_delay(node, target, load).energy
                    for target in np.linspace(base, 3 * base, 6)]
        assert energies == sorted(energies, reverse=True)


class TestMtcmos:
    def test_leakage_reduced_delay_held(self, adder):
        result = assign_dual_vth(adder, delta_vth=0.1,
                                 slack_fraction=0.10)
        assert result.leakage_after < result.leakage_before
        assert result.delay_after <= result.delay_before * 1.101
        assert 0 < result.n_high_vt <= result.n_gates

    def test_ratio_formula(self, node):
        ratio = leakage_ratio_for_vth_delta(node, 0.1)
        assert ratio > 5.0
        assert leakage_ratio_for_vth_delta(node, 0.0) \
            == pytest.approx(1.0)

    def test_ratio_rejects_negative(self, node):
        with pytest.raises(ValueError):
            leakage_ratio_for_vth_delta(node, -0.1)

    def test_zero_slack_keeps_critical_path_fast(self, adder):
        result = assign_dual_vth(adder, delta_vth=0.1,
                                 slack_fraction=0.0)
        assert result.delay_after <= result.delay_before * 1.001


class TestVtcmos:
    def test_standby_reduction(self, adder):
        result = apply_vtcmos_standby(adder, vsb=0.5)
        assert result.reduction > 1.0

    def test_effectiveness_shrinks_with_scaling(self):
        """Tab D on a real design."""
        old = apply_vtcmos_standby(ripple_adder(get_node("350nm"), 4),
                                   vsb=0.5)
        new = apply_vtcmos_standby(ripple_adder(get_node("45nm"), 4),
                                   vsb=0.5)
        assert old.reduction > 3.0 * new.reduction

    def test_gate_leakage_floor_at_65nm(self):
        """Where tunnelling peaks, no V_T lever can cut total leakage
        by more than a small factor."""
        result = apply_vtcmos_standby(
            ripple_adder(get_node("65nm"), 4), vsb=0.5)
        assert result.reduction < 2.0


class TestPowerGating:
    def test_sleep_reduction_large(self, adder):
        result = insert_power_gating(adder)
        assert result.reduction > 10.0

    def test_area_overhead_reasonable(self, adder):
        result = insert_power_gating(adder)
        # Tiny blocks pay proportionally more for the switch; the
        # overhead must still be bounded.
        assert 0 < result.area_overhead < 1.0

    def test_tighter_ir_budget_bigger_switch(self, adder):
        tight = insert_power_gating(adder, max_ir_drop_fraction=0.01)
        loose = insert_power_gating(adder, max_ir_drop_fraction=0.05)
        assert tight.sleep_width > loose.sleep_width

    def test_rejects_bad_budget(self, adder):
        with pytest.raises(ValueError):
            insert_power_gating(adder, max_ir_drop_fraction=0.9)
