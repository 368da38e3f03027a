"""Noise budgets for analog circuits: kT/C, device noise, SNR math."""

from __future__ import annotations

import math
from typing import Dict

from ..core.constants import kt_energy
from ..robust.errors import ModelDomainError
from ..robust.validate import validated


def ktc_noise_voltage(capacitance: float,
                      temperature: float = 300.0) -> float:
    """RMS kT/C sampling noise [V] on ``capacitance`` [F]."""
    if capacitance <= 0:
        raise ModelDomainError("capacitance must be positive")
    return math.sqrt(kt_energy(temperature) / capacitance)


def thermal_noise_density_mosfet(gm: float, gamma: float = 2.0 / 3.0,
                                 temperature: float = 300.0) -> float:
    """Input-referred thermal noise PSD of a MOSFET [V^2/Hz].

    v_n^2 = 4kT * gamma / gm; gamma rises above 2/3 for short
    channels (excess noise), another nanometre-era tax.
    """
    if gm <= 0:
        raise ModelDomainError("gm must be positive")
    return 4.0 * kt_energy(temperature) / 1.0 * gamma / gm


def corner_frequency(kf: float, cox: float, width: float, length: float,
                     gm: float, gamma: float = 2.0 / 3.0,
                     temperature: float = 300.0) -> float:
    """1/f corner [Hz]: where flicker PSD equals thermal PSD."""
    thermal = thermal_noise_density_mosfet(gm, gamma, temperature)
    return kf / (cox * width * length * thermal)


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
