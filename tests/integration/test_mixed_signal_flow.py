"""Integration: the full mixed-signal SoC chain, end to end.

Exercises the longest dependency chains in the library in one pass:

digital netlist -> event simulation -> SWAN injection -> substrate
mesh -> noise waveform -> VCO modulation -> spectrum -> emission mask.
"""

import numpy as np
import pytest

from repro.digital import clocked_datapath
from repro.signal_integrity import (WLAN_MASK, VcoModel, check_spurs,
                                    rms_jitter, LeesonParameters,
                                    substrate_noise_psd_from_waveform,
                                    vco_spur_experiment)
from repro.substrate import NoiseWaveform, SwanSimulator
from repro.technology import get_node

CLOCK = 13e6


@pytest.fixture(scope="module")
def node():
    return get_node("350nm")


@pytest.fixture(scope="module")
def netlist(node):
    return clocked_datapath(node, adder_width=8, n_slices=4, seed=5)


@pytest.fixture(scope="module")
def substrate_noise(netlist):
    swan = SwanSimulator(netlist, clock_frequency=CLOCK,
                         mesh_resolution=16, seed=0)
    one_period = swan.run(n_cycles=1, dt=2e-10,
                          duration=1.0 / CLOCK)
    n_periods = 13
    time = np.arange(one_period.time.size * n_periods) * 2e-10
    return NoiseWaveform(
        time=time, voltage=np.tile(one_period.voltage, n_periods))


class TestDigitalToSubstrateToVco:
    def test_noise_is_periodic_at_clock(self, substrate_noise):
        """The tiled SWAN waveform carries the clock fundamental."""
        psd_at_clock = substrate_noise_psd_from_waveform(
            substrate_noise.voltage, 2e-10, CLOCK)
        psd_off = substrate_noise_psd_from_waveform(
            substrate_noise.voltage, 2e-10, 3.7 * CLOCK)
        assert psd_at_clock > psd_off

    def test_spurs_land_at_clock_offset(self, substrate_noise):
        vco = VcoModel(center_frequency=2.3e9,
                       substrate_sensitivity=20e6)
        report = vco_spur_experiment(vco, substrate_noise, CLOCK)
        assert report.carrier_frequency == pytest.approx(2.3e9,
                                                         rel=0.01)
        assert report.upper_spur_dbc > -120.0

    def test_mask_check_runs_on_real_chain(self, substrate_noise):
        vco = VcoModel(center_frequency=2.3e9,
                       substrate_sensitivity=20e6)
        report = check_spurs(
            vco_spur_experiment(vco, substrate_noise, CLOCK),
            WLAN_MASK)
        # The small test block is quiet enough for the WLAN mask.
        assert report.compliant

    def test_jitter_from_swan_psd(self, substrate_noise):
        """The substrate PSD at the clock, where the periodic SWAN
        waveform has its power, adds jitter over the noise-free VCO."""
        vco = VcoModel(center_frequency=2.3e9,
                       substrate_sensitivity=20e6)
        psd = substrate_noise_psd_from_waveform(
            substrate_noise.voltage, 2e-10, CLOCK)
        params = LeesonParameters()
        jitter = rms_jitter(params, vco, psd)
        assert rms_jitter(params, vco, 0.0) < jitter < 1e-9


class TestCrossNodeConsistency:
    def test_same_flow_at_65nm(self):
        """The whole chain retargets to another node unchanged."""
        node = get_node("65nm")
        netlist = clocked_datapath(node, adder_width=4, n_slices=2,
                                   seed=1)
        swan = SwanSimulator(netlist, clock_frequency=50e6,
                             mesh_resolution=12, seed=1)
        waveform = swan.run(n_cycles=2)
        assert waveform.rms > 0
