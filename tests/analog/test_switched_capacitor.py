"""Tests for the switched-capacitor settling model."""

import math

import pytest

from repro.analog import (OtaDesign, ScAmplifier, SingleStageOta,
                          accuracy_from_bits, design_sc_stage,
                          thermal_noise_constant)
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("180nm")


@pytest.fixture(scope="module")
def ota_design():
    return OtaDesign(input_width=40e-6, input_length=0.4e-6,
                     load_width=20e-6, load_length=0.8e-6,
                     tail_current=400e-6)


@pytest.fixture(scope="module")
def stage(node, ota_design):
    return design_sc_stage(node, ota_design)


class TestScAmplifier:
    def test_feedback_factor(self, stage):
        assert stage.feedback_factor == pytest.approx(1.0 / 3.0)

    def test_validation(self, node, ota_design):
        perf = SingleStageOta(node, 1e-12).evaluate(ota_design)
        with pytest.raises(ValueError):
            ScAmplifier(sampling_capacitance=0.0, gain=2.0, ota=perf)

    def test_settling_longer_for_more_accuracy(self, stage):
        fast = stage.settling_time(0.5, 2.0 ** 7)
        slow = stage.settling_time(0.5, 2.0 ** 13)
        assert slow > fast

    def test_settling_includes_slewing_for_big_steps(self, stage):
        small = stage.settling_time(0.01, 1024.0)
        big = stage.settling_time(1.0, 1024.0)
        assert big > small

    def test_extra_bit_costs_fixed_time(self, stage):
        """ln(2)/omega_cl per bit in the linear regime."""
        t10 = stage.settling_time(0.5, 2.0 ** 11)
        t11 = stage.settling_time(0.5, 2.0 ** 12)
        expected = math.log(2.0) / stage.closed_loop_bandwidth
        assert t11 - t10 == pytest.approx(expected, rel=1e-6)

    def test_settling_validation(self, stage):
        with pytest.raises(ValueError):
            stage.settling_time(0.0, 100.0)
        with pytest.raises(ValueError):
            stage.settling_time(0.5, 1.0)

    def test_max_clock_positive_and_monotone(self, stage):
        f10 = stage.max_clock(0.5, 10.0)
        f12 = stage.max_clock(0.5, 12.0)
        assert 0 < f12 < f10


class TestSweepAndFom:
    def test_sweep_monotone(self, stage):
        clocks = [stage.max_clock(0.5, bits) for bits in (6, 8, 10, 12)]
        assert clocks == sorted(clocks, reverse=True)

    def test_fom_above_thermal_limit(self, stage):
        """No real circuit beats kT: the eq. 4 sanity check."""
        fom = stage.ota.power / (stage.max_clock(0.5, 10.0)
                                 * accuracy_from_bits(10.0) ** 2)
        assert fom > thermal_noise_constant(efficiency=1.0)

    def test_more_current_faster_clock(self, node, ota_design):
        import dataclasses
        hot = dataclasses.replace(ota_design, tail_current=1.6e-3)
        slow = design_sc_stage(node, ota_design)
        fast = design_sc_stage(node, hot)
        assert fast.max_clock(0.5, 10.0) > slow.max_clock(0.5, 10.0)
        assert fast.ota.power > slow.ota.power
