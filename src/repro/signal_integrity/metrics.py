"""Waveform-comparison metrics used by the SWAN and VCO experiments."""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..substrate.swan import NoiseWaveform
from ..robust.errors import ModelDomainError


def relative_rms_error(test: NoiseWaveform,
                       reference: NoiseWaveform) -> float:
    """|RMS_test - RMS_ref| / RMS_ref (the Fig. 10 RMS metric)."""
    ref = reference.rms
    if ref <= 0:
        raise ModelDomainError("reference waveform has zero RMS")
    return abs(test.rms - ref) / ref


def relative_p2p_error(test: NoiseWaveform,
                       reference: NoiseWaveform) -> float:
    """|P2P_test - P2P_ref| / P2P_ref (the Fig. 10 p2p metric)."""
    ref = reference.peak_to_peak
    if ref <= 0:
        raise ModelDomainError("reference waveform has zero peak-to-peak")
    return abs(test.peak_to_peak - ref) / ref


def pointwise_nrmse(test: NoiseWaveform,
                    reference: NoiseWaveform) -> float:
    """Point-by-point normalized RMS difference.

    Stricter than the Fig. 10 aggregate metrics: sensitive to shape
    and timing, not just energy.
    """
    resampled = test.resampled(reference.time)
    diff = resampled.voltage - reference.voltage
    ref_rms = reference.rms
    if ref_rms <= 0:
        raise ModelDomainError("reference waveform has zero RMS")
    return float(np.sqrt(np.mean(diff ** 2)) / ref_rms)


def correlation(test: NoiseWaveform, reference: NoiseWaveform) -> float:
    """Pearson correlation of the two waveforms."""
    resampled = test.resampled(reference.time)
    a = resampled.voltage - resampled.voltage.mean()
    b = reference.voltage - reference.voltage.mean()
    denom = math.sqrt(float(np.sum(a ** 2)) * float(np.sum(b ** 2)))
    if denom == 0:
        return 0.0
    return float(np.sum(a * b) / denom)


def comparison_report(test: NoiseWaveform,
                      reference: NoiseWaveform) -> Dict[str, float]:
    """All metrics in one dictionary."""
    return {
        "test_rms_mV": test.rms * 1e3,
        "reference_rms_mV": reference.rms * 1e3,
        "test_p2p_mV": test.peak_to_peak * 1e3,
        "reference_p2p_mV": reference.peak_to_peak * 1e3,
        "rms_error": relative_rms_error(test, reference),
        "p2p_error": relative_p2p_error(test, reference),
        "pointwise_nrmse": pointwise_nrmse(test, reference),
        "correlation": correlation(test, reference),
    }
