#!/usr/bin/env python
"""Mixed-signal SoC scenario: digital switching noise vs an embedded
VCO, analyzed with the SWAN flow (sections 4.3, Figs. 9-10).

A modem-like clocked datapath injects substrate noise; the flow
propagates it through the finite-difference substrate to an analog
sensor node, checks SWAN's macromodel accuracy against the detailed
reference, quantifies what a guard ring buys, and finally modulates a
2.3 GHz VCO with the result to show the clock spurs.

Run:  python examples/mixed_signal_soc.py
"""

import numpy as np

from repro.digital import clocked_datapath
from repro.signal_integrity import (VcoModel, comparison_report,
                                    vco_spur_experiment)
from repro.substrate import (NoiseWaveform, SwanSimulator,
                             run_swan_experiment)
from repro.technology import get_node

CLOCK = 13e6          # the paper's Fig. 9 clock
NODE = "350nm"        # the paper's Fig. 10 process


def main() -> None:
    node = get_node(NODE)
    netlist = clocked_datapath(node, adder_width=8, n_slices=8, seed=3)
    print(f"Digital aggressor: {netlist.gate_count()} gates, "
          f"{CLOCK / 1e6:.0f} MHz clock, {node.name} EPI process")

    # --- 1. SWAN accuracy against the detailed reference (Fig. 10) -----
    comparison = run_swan_experiment(netlist, n_cycles=5,
                                     clock_frequency=CLOCK,
                                     mesh_resolution=24, seed=0)
    report = comparison_report(comparison.swan, comparison.reference)
    print("\nSWAN vs detailed reference (the Fig. 10 check):")
    print(f"  reference noise : {report['reference_rms_mV']:.3f} mV rms,"
          f" {report['reference_p2p_mV']:.3f} mV p2p")
    print(f"  RMS error       : {report['rms_error'] * 100:.1f} % "
          f"(paper: <= 20 %)")
    print(f"  p2p error       : {report['p2p_error'] * 100:.1f} % "
          f"(paper: <= 4 %)")
    print(f"  correlation     : {report['correlation']:.3f}")

    # --- 2. What does a guard ring buy? --------------------------------
    plain = SwanSimulator(netlist, clock_frequency=CLOCK,
                          mesh_resolution=24, guard_ring=False, seed=0)
    ringed = SwanSimulator(netlist, clock_frequency=CLOCK,
                           mesh_resolution=24, guard_ring=True, seed=0)
    activity = plain.simulate_activity(n_cycles=3, stimulus_seed=0)
    noise_plain = plain.run(activity=activity)
    noise_ringed = ringed.run(activity=activity)
    print("\nGuard ring around the sensor:")
    print(f"  without: {noise_plain.rms * 1e3:.3f} mV rms")
    print(f"  with   : {noise_ringed.rms * 1e3:.3f} mV rms "
          f"({noise_plain.rms / noise_ringed.rms:.1f}x better; note "
          f"EPI substrates limit what rings can do)")

    # --- 3. FM modulation of the VCO (Fig. 9) --------------------------
    one_period = plain.run(activity=activity, dt=1e-10,
                           duration=1.0 / CLOCK)
    n_periods = 26
    time = np.arange(one_period.time.size * n_periods) * 1e-10
    noise = NoiseWaveform(time=time,
                          voltage=np.tile(one_period.voltage, n_periods))
    vco = VcoModel(center_frequency=2.3e9, substrate_sensitivity=20e6)
    spurs = vco_spur_experiment(vco, noise, CLOCK)
    print(f"\n2.3 GHz VCO over that substrate (Fig. 9):")
    print(f"  carrier          : {spurs.carrier_frequency / 1e9:.3f} GHz")
    print(f"  spur @ +13 MHz   : {spurs.upper_spur_dbc:6.1f} dBc")
    print(f"  spur @ -13 MHz   : {spurs.lower_spur_dbc:6.1f} dBc")
    print(f"  narrowband-FM fit: {spurs.analytic_spur_dbc:6.1f} dBc")
    print("\nThe digital clock is visible as FM sidebands around the "
          "VCO -- exactly the paper's out-of-band emission worry.")


if __name__ == "__main__":
    main()
