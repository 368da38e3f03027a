"""Noise budgets for analog circuits: kT/C, device noise, SNR math."""

from __future__ import annotations

import math
from typing import Dict

from ..core.constants import kt_energy
from ..robust.errors import ModelDomainError
from ..robust.validate import validated


@validated(snr_db="finite")
def enob_from_snr(snr_db: float) -> float:
    """Effective number of bits: (SNR - 1.76)/6.02."""
    return (snr_db - 1.76) / 6.02


def noise_budget(snr_db: float, signal_rms: float,
                 n_stages: int = 3,
                 temperature: float = 300.0) -> Dict[str, float]:
    """Split an SNR target across ``n_stages`` equal contributors.

    Returns the per-stage noise allowance and the implied total
    sampling capacitance -- the quantity that, multiplied by V^2*f,
    gives the thermal-limit power of eq. 4.
    """
    if n_stages < 1:
        raise ModelDomainError("n_stages must be >= 1")
    total_noise = signal_rms / 10.0 ** (snr_db / 20.0)
    per_stage = total_noise / math.sqrt(n_stages)
    cap = kt_energy(temperature) / per_stage ** 2
    return {
        "total_noise_rms_V": total_noise,
        "per_stage_noise_rms_V": per_stage,
        "per_stage_capacitance_F": cap,
        "total_capacitance_F": cap * n_stages,
    }
