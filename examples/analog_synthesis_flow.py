#!/usr/bin/env python
"""Analog synthesis walkthrough: the AMGIE/LAYLA flow on two circuits.

1. Size a single-stage OTA against a spec with the differential-
   evolution engine (the 'powerful numerical optimization engine
   coupled to evaluation engines' of section 4.2).
2. Run the full detector-front-end flow of Fig. 8 -- sizing, device
   generation, placement, routing -- and write the layout to SVG.

Run:  python examples/analog_synthesis_flow.py
"""

import pathlib

from repro.synthesis import (default_ota_spec,
                             manual_design_baseline, ota_synthesizer,
                             synthesize_detector_frontend)
from repro.technology import get_node


def main() -> None:
    node = get_node("180nm")

    # --- 1. OTA sizing ---------------------------------------------------
    spec = default_ota_spec()
    print(f"Sizing a single-stage OTA in {node.name} against:")
    for attr, (direction, bound) in spec.constraints.items():
        print(f"  {attr:>18} {direction} {bound:g}")
    synthesizer = ota_synthesizer(node, load_capacitance=2e-12,
                                  spec=spec)
    result = synthesizer.run(seed=0, maxiter=40)
    perf = result.performance
    print(f"\nFound in {result.n_evaluations} evaluations "
          f"(feasible: {result.feasible}):")
    for name, value in result.values.items():
        print(f"  {name:>22} = {value:.4g}")
    print(f"  ->  gain {perf.gain_db:.1f} dB, GBW "
          f"{perf.gbw_hz / 1e6:.1f} MHz, PM "
          f"{perf.phase_margin_deg:.0f} deg, offset "
          f"{perf.offset_sigma * 1e3:.2f} mV, power "
          f"{perf.power * 1e3:.3f} mW")

    # --- 2. The Fig. 8 detector front-end ---------------------------------
    node350 = get_node("350nm")
    print(f"\nFull AMGIE/LAYLA flow: detector front-end in "
          f"{node350.name} (Fig. 8)...")
    report = synthesize_detector_frontend(
        node350, seed=1, sizing_maxiter=30,
        placement_iterations=1500)
    summary = report.summary()
    manual = manual_design_baseline(node350)
    print(f"  synthesized: ENC {summary['enc_electrons']:.0f} e-, "
          f"power {summary['power_mW']:.3f} mW, area "
          f"{summary['area_mm2']:.3f} mm2")
    print(f"  manual ref : ENC {manual['enc_electrons']:.0f} e-, "
          f"power {manual['power_mW']:.3f} mW")
    print(f"  routing    : {summary['route_completion'] * 100:.0f} % "
          f"of nets, {summary['wirelength_mm']:.2f} mm of wire")
    print("\n" + report.layout.to_text())

    out = pathlib.Path(__file__).parent / "detector_frontend.svg"
    out.write_text(report.layout.to_svg())
    print(f"\nLayout written to {out} (the Fig. 8 picture).")


if __name__ == "__main__":
    main()
