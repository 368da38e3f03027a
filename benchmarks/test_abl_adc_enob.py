"""Ablation: mismatch -> effective bits, and calibration's rescue.

Eq. 4's mismatch term, demonstrated on signals: a 10-bit behavioural
pipeline ADC built from devices of growing area, sine-tested by FFT.
Raw ENOB climbs ~1 bit per 4x of matching area (Pelgrom); digital
calibration recovers most of the lost bits without the area -- the
mechanism that lets calibrated converters escape the Fig. 6 mismatch
limit and pay only the thermal one.
"""

import pytest

from repro.analog import (PipelineAdc, enob_vs_device_area, sine_test,
                          yield_vs_area)
from repro.technology import get_node

from conftest import print_table


def generate_ablation():
    node = get_node("65nm")
    ideal = sine_test(PipelineAdc(node, n_stages=9),
                      n_samples=2048, cycles=67)
    rows = enob_vs_device_area(node,
                               area_factors=(1, 4, 16, 64),
                               seed=1, n_samples=2048, cycles=67)
    return ideal, rows, yield_vs_area(node, offset_limit=3e-3)


@pytest.mark.benchmark(group="abl_adc")
def test_abl_adc_enob(benchmark):
    ideal, rows, offset_yield = benchmark(generate_ablation)
    print(f"ideal pipeline: ENOB {ideal.enob:.2f} "
          f"(SNDR {ideal.sndr_db:.1f} dB)")
    print_table("Ablation: ENOB vs matching-device area (65 nm, "
                "10-bit pipeline)", rows)
    print_table("Section 4.1: input-pair offset yield vs area (65 nm, "
                "3 mV limit)", offset_yield)

    # The ideal converter delivers its bits.
    assert ideal.enob > 9.0
    # Mismatch clips the effective resolution hard at minimum area.
    assert rows[0]["enob_raw"] < rows[0]["nominal_bits"] - 2.0
    # ~1 bit per 4x area (0.5 bit tolerance per step).
    raw = [row["enob_raw"] for row in rows]
    assert raw == sorted(raw)
    assert raw[-1] - raw[0] > 1.5
    # Calibration recovers more than one bit at small areas...
    assert rows[0]["enob_calibrated"] > rows[0]["enob_raw"] + 1.0
    # ...and brings every area within ~1.5 bits of nominal.
    for row in rows:
        assert row["enob_calibrated"] > row["nominal_bits"] - 1.6
    # Offset yield only climbs with area: analog devices stay big.
    yields = [row["yield"] for row in offset_yield]
    assert yields == sorted(yields)
