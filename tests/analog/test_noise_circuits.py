"""Tests for noise budgets and the analytic circuit evaluation engines."""

import math

import pytest

from repro.analog import (DetectorFrontend, DetectorFrontendDesign,
                          OtaDesign, SingleStageOta, enob_from_snr,
                          noise_budget)
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("180nm")


class TestSnrMath:
    def test_enob_roundtrip(self):
        assert enob_from_snr(6.02 * 12.0 + 1.76) == pytest.approx(12.0)

    def test_noise_budget_total_capacitance(self):
        budget = noise_budget(70.0, 0.5, n_stages=3)
        assert budget["total_capacitance_F"] == pytest.approx(
            3.0 * budget["per_stage_capacitance_F"])

    def test_budget_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            noise_budget(70.0, 0.5, n_stages=0)


@pytest.fixture(scope="module")
def ota_design():
    return OtaDesign(input_width=20e-6, input_length=0.5e-6,
                     load_width=10e-6, load_length=1e-6,
                     tail_current=100e-6)


class TestSingleStageOta:
    def test_performance_physical(self, node, ota_design):
        perf = SingleStageOta(node, 2e-12).evaluate(ota_design)
        assert 20 < perf.gain_db < 80
        assert perf.gbw_hz > 1e6
        assert 0 < perf.phase_margin_deg <= 90
        assert perf.power > 0

    def test_more_current_more_gbw(self, node, ota_design):
        import dataclasses
        ota = SingleStageOta(node, 2e-12)
        hot = dataclasses.replace(ota_design, tail_current=400e-6)
        assert ota.evaluate(hot).gbw_hz \
            > ota.evaluate(ota_design).gbw_hz

    def test_bigger_load_cap_slower(self, node, ota_design):
        fast = SingleStageOta(node, 1e-12).evaluate(ota_design)
        slow = SingleStageOta(node, 4e-12).evaluate(ota_design)
        assert slow.gbw_hz < fast.gbw_hz
        assert slow.slew_rate < fast.slew_rate

    def test_bigger_devices_less_offset(self, node, ota_design):
        import dataclasses
        ota = SingleStageOta(node, 2e-12)
        big = dataclasses.replace(
            ota_design, input_width=80e-6, input_length=1e-6,
            load_width=40e-6, load_length=2e-6)
        assert ota.evaluate(big).offset_sigma \
            < ota.evaluate(ota_design).offset_sigma

    def test_rejects_sub_feature_sizing(self, node):
        bad = OtaDesign(1e-9, 1e-9, 1e-6, 1e-6, 1e-4)
        with pytest.raises(ValueError):
            SingleStageOta(node, 1e-12).evaluate(bad)

    def test_rejects_bad_load(self, node):
        with pytest.raises(ValueError):
            SingleStageOta(node, 0.0)


class TestDetectorFrontend:
    def make_design(self, **overrides):
        params = dict(input_width=500e-6, input_length=0.5e-6,
                      feedback_capacitance=0.5e-12,
                      shaper_time_constant=1e-6,
                      drain_current=300e-6)
        params.update(overrides)
        return DetectorFrontendDesign(**params)

    def test_enc_realistic(self, node):
        perf = DetectorFrontend(node).evaluate(self.make_design())
        assert 20 < perf.enc_electrons < 5000

    def test_more_current_less_series_noise(self, node):
        engine = DetectorFrontend(node)
        lo = engine.evaluate(self.make_design(drain_current=50e-6))
        hi = engine.evaluate(self.make_design(drain_current=1e-3))
        assert hi.enc_electrons < lo.enc_electrons

    def test_enc_vs_tau_is_u_shaped(self, node):
        """Series noise ~ 1/tau, parallel ~ tau: a minimum exists."""
        engine = DetectorFrontend(node, detector_leakage=10e-9)
        taus = [50e-9, 200e-9, 1e-6, 5e-6, 20e-6]
        encs = [engine.evaluate(
            self.make_design(shaper_time_constant=t)).enc_electrons
            for t in taus]
        best = encs.index(min(encs))
        assert 0 < best < len(taus) - 1

    def test_bigger_detector_more_noise(self):
        node = get_node("350nm")
        small = DetectorFrontend(node, detector_capacitance=2e-12)
        big = DetectorFrontend(node, detector_capacitance=20e-12)
        design = self.make_design()
        assert big.evaluate(design).enc_electrons \
            > small.evaluate(design).enc_electrons

    def test_charge_gain_inverse_feedback_cap(self, node):
        engine = DetectorFrontend(node)
        lo = engine.evaluate(self.make_design(
            feedback_capacitance=1e-12))
        hi = engine.evaluate(self.make_design(
            feedback_capacitance=0.25e-12))
        assert hi.charge_gain == pytest.approx(4.0 * lo.charge_gain)

    def test_validation(self, node):
        with pytest.raises(ValueError):
            DetectorFrontend(node, detector_capacitance=0.0)
        with pytest.raises(ValueError):
            self.make_design(drain_current=0.0).validate(node)
