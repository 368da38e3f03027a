"""Tests for VCO spur analysis (Fig. 9), crosstalk and metrics."""

import math

import numpy as np
import pytest

from repro.signal_integrity import (SupplyRail, VcoModel,
                                    capacitive_crosstalk_ratio,
                                    comparison_report, correlation,
                                    crosstalk_trend,
                                    pointwise_nrmse, relative_p2p_error,
                                    relative_rms_error,
                                    simultaneous_switching_noise,
                                    spectrum_of, supply_bounce,
                                    synthetic_clock_noise,
                                    vco_spur_experiment)
from repro.substrate import NoiseWaveform
from repro.interconnect import WireGeometry
from repro.technology import all_nodes, get_node


class TestVcoModel:
    def test_clean_vco_single_tone(self):
        vco = VcoModel(center_frequency=1e9)
        quiet = NoiseWaveform(time=np.linspace(0, 1e-6, 2000),
                              voltage=np.zeros(2000))
        t, signal = vco.waveform(quiet)
        spectrum = spectrum_of(t, signal)
        assert spectrum.carrier_frequency() == pytest.approx(
            1e9, rel=0.01)

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            VcoModel(center_frequency=0.0)

    def test_analytic_spur_formula(self):
        vco = VcoModel(substrate_sensitivity=20e6)
        level = vco.analytic_spur_level(5e-3, 13e6)
        beta = 20e6 * 5e-3 / 13e6
        assert level == pytest.approx(20 * math.log10(beta / 2.0))


class TestFig9:
    @pytest.fixture(scope="class")
    def report(self):
        vco = VcoModel(center_frequency=2.3e9,
                       substrate_sensitivity=20e6)
        noise = synthetic_clock_noise(13e6, duration=2e-6,
                                      amplitude=5e-3)
        return vco_spur_experiment(vco, noise, 13e6)

    def test_carrier_at_2p3_ghz(self, report):
        assert report.carrier_frequency == pytest.approx(2.3e9,
                                                         rel=0.01)

    def test_spurs_at_clock_offset(self, report):
        """The paper's observation: the 13 MHz clock is visible as FM
        sidebands around the 2.3 GHz carrier."""
        assert report.upper_spur_dbc > -120.0
        assert report.lower_spur_dbc > -120.0

    def test_fft_matches_narrowband_fm_theory(self, report):
        assert report.upper_spur_dbc == pytest.approx(
            report.analytic_spur_dbc, abs=3.0)

    def test_more_noise_higher_spurs(self):
        vco = VcoModel(center_frequency=2.3e9,
                       substrate_sensitivity=20e6)
        quiet = vco_spur_experiment(
            vco, synthetic_clock_noise(13e6, 2e-6, amplitude=1e-3),
            13e6)
        loud = vco_spur_experiment(
            vco, synthetic_clock_noise(13e6, 2e-6, amplitude=10e-3),
            13e6)
        assert loud.worst_spur_dbc > quiet.worst_spur_dbc + 10.0

    def test_more_sensitivity_higher_spurs(self):
        noise = synthetic_clock_noise(13e6, 2e-6, amplitude=5e-3)
        lo = vco_spur_experiment(VcoModel(2.3e9, 5e6), noise, 13e6)
        hi = vco_spur_experiment(VcoModel(2.3e9, 50e6), noise, 13e6)
        assert hi.worst_spur_dbc > lo.worst_spur_dbc

    def test_synthetic_noise_validation(self):
        with pytest.raises(ValueError):
            synthetic_clock_noise(0.0, 1e-6)


class TestCrosstalk:
    def test_ratio_in_unit_interval(self):
        geom = WireGeometry.for_node(get_node("65nm"))
        ratio = capacitive_crosstalk_ratio(geom)
        assert 0 < ratio < 1

    def test_victim_ground_cap_helps(self):
        geom = WireGeometry.for_node(get_node("65nm"))
        bare = capacitive_crosstalk_ratio(geom)
        loaded = capacitive_crosstalk_ratio(
            geom, victim_ground_cap=1e-13)
        assert loaded < bare

    def test_trend_exists_for_all_nodes(self):
        rows = crosstalk_trend(all_nodes())
        assert len(rows) == len(all_nodes())
        assert all(0 < row["crosstalk_ratio"] < 1 for row in rows)


class TestSupplyBounce:
    def test_bounce_components(self):
        rail = SupplyRail(resistance=0.5, inductance=2e-9,
                          decoupling=1e-9)
        result = supply_bounce(rail, 0.1, 100e-12)
        assert result["l_didt_V"] == pytest.approx(2.0)
        assert result["ir_drop_V"] == pytest.approx(0.05)
        assert result["bounce_V"] <= result["l_didt_V"] \
            + result["ir_drop_V"]

    def test_decap_limits_bounce(self):
        skinny = SupplyRail(decoupling=1e-12)
        fat = SupplyRail(decoupling=100e-9)
        bounce_skinny = supply_bounce(skinny, 0.1, 100e-12)["bounce_V"]
        bounce_fat = supply_bounce(fat, 0.1, 100e-12)["bounce_V"]
        assert bounce_fat <= bounce_skinny

    def test_rejects_bad_event(self):
        with pytest.raises(ValueError):
            supply_bounce(SupplyRail(), -0.1, 1e-10)

    def test_ssn_grows_with_drivers(self):
        node = get_node("65nm")
        few = simultaneous_switching_noise(node, 4)
        many = simultaneous_switching_noise(node, 64)
        assert many["bounce_V"] >= few["bounce_V"]
        assert many["peak_current_A"] > few["peak_current_A"]


class TestMetrics:
    def _waveforms(self):
        t = np.linspace(0, 1e-7, 500)
        ref = NoiseWaveform(time=t, voltage=np.sin(2e8 * t))
        test = NoiseWaveform(time=t, voltage=1.1 * np.sin(2e8 * t))
        return test, ref

    def test_rms_error(self):
        test, ref = self._waveforms()
        assert relative_rms_error(test, ref) == pytest.approx(0.1)

    def test_p2p_error(self):
        test, ref = self._waveforms()
        assert relative_p2p_error(test, ref) == pytest.approx(0.1)

    def test_identical_waveforms_zero_error(self):
        _, ref = self._waveforms()
        assert relative_rms_error(ref, ref) == 0.0
        assert pointwise_nrmse(ref, ref) == 0.0
        assert correlation(ref, ref) == pytest.approx(1.0)

    def test_scaled_waveform_perfectly_correlated(self):
        test, ref = self._waveforms()
        assert correlation(test, ref) == pytest.approx(1.0)

    def test_report_fields(self):
        test, ref = self._waveforms()
        report = comparison_report(test, ref)
        assert report["rms_error"] == pytest.approx(0.1)
        assert report["correlation"] == pytest.approx(1.0)

    def test_zero_reference_raises(self):
        t = np.linspace(0, 1e-7, 100)
        zero = NoiseWaveform(time=t, voltage=np.zeros(100))
        test = NoiseWaveform(time=t, voltage=np.ones(100))
        with pytest.raises(ValueError):
            relative_rms_error(test, zero)
