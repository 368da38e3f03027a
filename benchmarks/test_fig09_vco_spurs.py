"""Fig. 9: measured FM modulation of a 2.3 GHz VCO by substrate noise
from a digital block clocked at 13 MHz.

The digital block's substrate noise (from the SWAN flow on a scaled
datapath standing in for the paper's 250 kgates) frequency-modulates
a behavioural VCO; the spectrum shows spurs at +/- 13 MHz around the
carrier.  Shape criteria: spurs exactly at the clock offset, FFT spur
level within a few dB of narrowband-FM theory, and spur level growing
with injected noise.
"""

import numpy as np
import pytest

from repro.digital import clocked_datapath
from repro.signal_integrity import (WLAN_MASK, LeesonParameters,
                                    VcoModel, check_spurs,
                                    phase_noise_profile, rms_jitter,
                                    substrate_noise_psd_from_waveform,
                                    synthetic_clock_noise,
                                    vco_spur_experiment)
from repro.substrate import NoiseWaveform, SwanSimulator
from repro.technology import get_node

from conftest import print_table

CLOCK = 13e6


def generate_fig9():
    node = get_node("350nm")
    # Digital aggressor: a clocked datapath (scaled stand-in for the
    # paper's 250 kgate block) driving the substrate via SWAN.
    netlist = clocked_datapath(node, adder_width=8, n_slices=6, seed=3)
    swan = SwanSimulator(netlist, clock_frequency=CLOCK,
                         mesh_resolution=20, seed=0)
    # One clock period of SWAN noise, tiled periodically over the
    # observation window (steady-state periodic activity).
    one_period = swan.run(n_cycles=1, dt=1e-10,
                          duration=1.0 / CLOCK)
    n_periods = 26
    time = np.arange(one_period.time.size * n_periods) * 1e-10
    voltage = np.tile(one_period.voltage, n_periods)
    noise = NoiseWaveform(time=time, voltage=voltage)

    vco = VcoModel(center_frequency=2.3e9, substrate_sensitivity=20e6)
    report = vco_spur_experiment(vco, noise, CLOCK)

    # Sensitivity series: spur level vs noise amplitude.
    series = []
    verdicts = [{"noise": "SWAN", **_verdict(report)}]
    for amplitude in (1e-3, 3e-3, 10e-3):
        synthetic = synthetic_clock_noise(CLOCK, duration=2e-6,
                                          amplitude=amplitude)
        r = vco_spur_experiment(vco, synthetic, CLOCK)
        series.append({
            "noise_amplitude_mV": amplitude * 1e3,
            "spur_dbc": r.worst_spur_dbc,
            "analytic_dbc": r.analytic_spur_dbc,
        })
        verdicts.append({"noise": f"{amplitude * 1e3:g} mV tone",
                         **_verdict(r)})

    # Beyond the spurs: the SWAN noise power around the clock, taken
    # as a white floor, raises the VCO's phase noise and its jitter.
    params = LeesonParameters()
    psd = substrate_noise_psd_from_waveform(voltage, 1e-10, CLOCK)
    profile = phase_noise_profile(params, vco, psd,
                                  [1e4, 1e5, 1e6, 1e7])
    jitter = [{"substrate_psd_V2_per_Hz": level,
               "rms_jitter_ps": rms_jitter(params, vco, level) * 1e12}
              for level in (0.0, psd)]
    return report, series, noise, verdicts, profile, jitter


def _verdict(spurs):
    compliance = check_spurs(spurs, WLAN_MASK)
    return {"spur_dbc": compliance.spur_dbc,
            "limit_dbc": compliance.limit_dbc,
            "margin_db": compliance.margin_db,
            "compliant": compliance.compliant}


@pytest.mark.benchmark(group="fig09")
def test_fig09_vco_spurs(benchmark):
    report, series, noise, verdicts, profile, jitter = \
        benchmark(generate_fig9)
    print_table("Fig. 9: VCO spur report (SWAN-driven)", [{
        "carrier_GHz": report.carrier_frequency / 1e9,
        "clock_MHz": report.clock_frequency / 1e6,
        "upper_spur_dbc": report.upper_spur_dbc,
        "lower_spur_dbc": report.lower_spur_dbc,
        "analytic_dbc": report.analytic_spur_dbc,
        "substrate_p2p_mV": noise.peak_to_peak * 1e3,
    }])
    print_table("Fig. 9b: spur level vs substrate noise amplitude",
                series)
    print_table("Fig. 9 (section 4.3): spurs against the WLAN emission "
                "mask", verdicts)
    print_table("Fig. 9 (section 4.3): VCO phase noise with the SWAN "
                "noise floor", profile)
    print_table("Fig. 9 (section 4.3): integrated RMS jitter, 10 kHz to "
                "40 MHz", jitter)

    # Carrier where it should be.
    assert report.carrier_frequency == pytest.approx(2.3e9, rel=0.01)
    # The clock shows up as FM sidebands at +/- 13 MHz.
    assert report.upper_spur_dbc > -110.0
    assert report.lower_spur_dbc > -110.0
    # FFT agrees with narrowband FM theory for the synthetic series.
    for row in series:
        assert row["spur_dbc"] == pytest.approx(row["analytic_dbc"],
                                                abs=3.0)
    # 10x more noise -> +20 dB spur.
    assert series[-1]["spur_dbc"] - series[0]["spur_dbc"] \
        == pytest.approx(20.0, abs=3.0)
    # Louder noise eats the mask margin; substrate noise adds jitter.
    margins = [row["margin_db"] for row in verdicts[1:]]
    assert margins == sorted(margins, reverse=True)
    assert jitter[1]["rms_jitter_ps"] > jitter[0]["rms_jitter_ps"]
