"""Fig. 6: thermal-noise and mismatch limits in the power-speed-
accuracy trade-off, with real ADC designs overlaid.

Shape criteria: both limits are straight lines in the log-log plane,
the mismatch limit sits ~1.5-2.5 decades above the thermal one, every
surveyed converter is above the thermal limit, and the survey clusters
closest to the mismatch limit ("for untrimmed or uncalibrated
circuits, the mismatch limit is determining the minimum required
power").
"""

import math

import numpy as np
import pytest

from repro.analog import (OtaDesign, accuracy_from_bits, design_sc_stage,
                          limit_gap, mismatch_constant, noise_budget,
                          sample_synthetic_survey, survey_vs_limits,
                          thermal_noise_constant, tradeoff_plane)
from repro.technology import get_node

from conftest import print_table


def generate_fig6():
    node = get_node("350nm")   # the survey's era
    speeds = np.geomspace(1e4, 1e10, 13)
    plane = tradeoff_plane(node, speeds.tolist(), n_bits=10.0)
    survey = survey_vs_limits(node)
    synthetic = [{
        "name": design.name,
        "sample_rate_Hz": design.sample_rate,
        "enob": design.n_bits,
        "power_W": design.power,
        "margin_over_mismatch": design.to_tradeoff_point().figure_of_merit
        / mismatch_constant(node),
    } for design in sample_synthetic_survey(node, n_designs=8, seed=0)]
    # 10 bits (SNR 61.96 dB) on a 1 V peak-to-peak sine.
    budget = noise_budget(6.02 * 10.0 + 1.76, 0.5 / math.sqrt(2.0),
                          n_stages=3)
    return node, plane, survey, synthetic, budget


def sc_stage_clocks():
    """Eq. 4's circuit mechanics: the clock a 180 nm SC stage settles
    at, and its speed*accuracy^2/power against the thermal limit."""
    stage = design_sc_stage(get_node("180nm"), OtaDesign(
        input_width=40e-6, input_length=0.4e-6, load_width=20e-6,
        load_length=0.8e-6, tail_current=400e-6))
    rows = []
    for bits in (6.0, 8.0, 10.0, 12.0):
        clock = stage.max_clock(0.5, bits)
        fom = stage.ota.power / (clock * accuracy_from_bits(bits) ** 2)
        rows.append({"n_bits": bits, "max_clock_MHz": clock * 1e-6,
                     "margin_over_thermal":
                         fom / thermal_noise_constant(efficiency=1.0)})
    return rows


@pytest.mark.benchmark(group="fig06")
def test_fig06_tradeoff_plane(benchmark):
    node, plane, survey, synthetic, budget = benchmark(generate_fig6)
    print_table("Fig. 6: P limits vs speed at 10 bit", plane)
    print_table("Fig. 6 overlay: ADC survey vs the two limits",
                survey,
                columns=["name", "architecture", "sample_rate_Hz",
                         "enob", "power_W", "margin_over_mismatch",
                         "margin_over_thermal"])
    gap = limit_gap(node)
    print(f"mismatch/thermal constant gap: {gap:.1f}x "
          f"({math.log10(gap):.2f} decades)")
    print_table("Fig. 6 (section 4.1): synthetic designs 2-30x above "
                "the mismatch limit (seed 0)", synthetic)
    print_table("Section 4.1 (eq. 4): kT/C budget of a 10-bit, "
                "three-stage chain (1 V p-p)", [budget])
    clocks = sc_stage_clocks()
    print_table("Section 4.1 (eq. 4): achievable clock of a 180 nm "
                "SC stage vs resolution", clocks)

    # Limit lines parallel in log-log (constant ratio).
    ratios = [row["mismatch_limit_W"] / row["thermal_limit_W"]
              for row in plane]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)
    # The famous ~2 decade gap.
    assert 1.0 < math.log10(gap) < 2.5
    # Physics: nobody beats kT.
    assert all(row["margin_over_thermal"] > 1.0 for row in survey)
    # The cluster hugs the mismatch line, not the thermal one.
    log_margins_mismatch = [math.log10(row["margin_over_mismatch"])
                            for row in survey]
    median_mismatch = sorted(log_margins_mismatch)[len(survey) // 2]
    assert median_mismatch < math.log10(gap)
    # Synthetic designs stay inside their 2-30x margin band.
    assert all(1.9 < row["margin_over_mismatch"] < 31.0
               for row in synthetic)
    # More bits settle slower, and no circuit beats kT.
    clock = [row["max_clock_MHz"] for row in clocks]
    assert clock == sorted(clock, reverse=True)
    assert all(row["margin_over_thermal"] > 1.0 for row in clocks)
