"""Oscillator phase noise and substrate-induced jitter.

Completes the Fig. 9 picture: beyond discrete spurs, substrate noise
raises the VCO's phase-noise floor and closes timing budgets.  Leeson's
model provides the intrinsic phase noise; the substrate contribution
converts the noise PSD at the tuning/substrate port through K_sub into
phase fluctuations; jitter integrates the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.constants import kt_energy
from .vco import VcoModel
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class LeesonParameters:
    """Leeson-model description of an LC oscillator.

    Parameters
    ----------
    loaded_q:
        Loaded tank quality factor.
    signal_power:
        Carrier power at the tank [W].
    noise_factor:
        Amplifier excess-noise factor F.
    corner_frequency:
        1/f^3 corner [Hz] (flicker upconversion).
    """

    loaded_q: float = 10.0
    signal_power: float = 1e-3
    noise_factor: float = 4.0
    corner_frequency: float = 100e3

    def __post_init__(self) -> None:
        if min(self.loaded_q, self.signal_power,
               self.noise_factor) <= 0:
            raise ModelDomainError("Leeson parameters must be positive")


def leeson_phase_noise(params: LeesonParameters, carrier: float,
                       offset: float,
                       temperature: float = 300.0) -> float:
    """Leeson phase noise L(f_m) [dBc/Hz] at ``offset`` from carrier.

    L(f) = 10 log10( (2FkT/P) * (1 + (f0/(2Q f))^2) * (1 + fc/f) / 2 ).
    """
    if carrier <= 0 or offset <= 0:
        raise ModelDomainError("carrier and offset must be positive")
    thermal = (2.0 * params.noise_factor * kt_energy(temperature)
               / params.signal_power)
    resonator = 1.0 + (carrier / (2.0 * params.loaded_q * offset)) ** 2
    flicker = 1.0 + params.corner_frequency / offset
    return 10.0 * math.log10(thermal * resonator * flicker / 2.0)


def substrate_phase_noise(vco: VcoModel, noise_psd: float,
                          offset: float) -> float:
    """Phase noise [dBc/Hz] from substrate noise with PSD
    ``noise_psd`` [V^2/Hz] at ``offset``.

    Narrowband FM: L(f) = 10 log10( (K_sub^2 * S_v(f)) / (2 f^2) ).
    """
    if noise_psd < 0 or offset <= 0:
        raise ModelDomainError("bad substrate-noise parameters")
    if noise_psd == 0:
        return -math.inf
    return 10.0 * math.log10(
        vco.substrate_sensitivity ** 2 * noise_psd
        / (2.0 * offset ** 2))


def total_phase_noise(params: LeesonParameters, vco: VcoModel,
                      noise_psd: float, offset: float,
                      temperature: float = 300.0) -> float:
    """Power sum of intrinsic and substrate phase noise [dBc/Hz]."""
    intrinsic = leeson_phase_noise(params, vco.center_frequency,
                                   offset, temperature)
    substrate = substrate_phase_noise(vco, noise_psd, offset)
    linear = 10.0 ** (intrinsic / 10.0)
    if not math.isinf(substrate):
        linear += 10.0 ** (substrate / 10.0)
    return 10.0 * math.log10(linear)


def phase_noise_profile(params: LeesonParameters, vco: VcoModel,
                        noise_psd: float,
                        offsets: Sequence[float],
                        temperature: float = 300.0
                        ) -> List[Dict[str, float]]:
    """Phase-noise table across offsets, split by contributor."""
    rows = []
    for offset in offsets:
        rows.append({
            "offset_Hz": offset,
            "intrinsic_dbc_hz": leeson_phase_noise(
                params, vco.center_frequency, offset, temperature),
            "substrate_dbc_hz": substrate_phase_noise(
                vco, noise_psd, offset),
            "total_dbc_hz": total_phase_noise(
                params, vco, noise_psd, offset, temperature),
        })
    return rows


def rms_jitter(params: LeesonParameters, vco: VcoModel,
               noise_psd: float,
               band: tuple = (10e3, 40e6),
               temperature: float = 300.0,
               n_points: int = 200) -> float:
    """Integrated RMS jitter [s] over the offset ``band``.

    sigma_t = sqrt(2 * integral L(f) df) / (2 pi f0).
    """
    lo, hi = band
    if lo <= 0 or hi <= lo:
        raise ModelDomainError("band must satisfy 0 < lo < hi")
    offsets = np.geomspace(lo, hi, n_points)
    linear = np.array([
        10.0 ** (total_phase_noise(params, vco, noise_psd,
                                   float(f), temperature) / 10.0)
        for f in offsets])
    integral = float(np.trapezoid(linear, offsets))
    phase_rms = math.sqrt(2.0 * integral)
    return phase_rms / (2.0 * math.pi * vco.center_frequency)


def substrate_noise_psd_from_waveform(voltage: np.ndarray,
                                      dt: float,
                                      offset: float) -> float:
    """Estimate the substrate noise PSD [V^2/Hz] at ``offset``.

    Periodogram of the SWAN waveform, averaged in a one-decade band
    around the requested offset.
    """
    if dt <= 0 or offset <= 0:
        raise ModelDomainError("dt and offset must be positive")
    voltage = np.asarray(voltage, dtype=float)
    if voltage.size < 16:
        raise ModelDomainError("waveform too short for a PSD estimate")
    window = np.hanning(voltage.size)
    spectrum = np.fft.rfft((voltage - voltage.mean()) * window)
    # One-sided PSD with window power compensation.
    psd = (2.0 * dt * np.abs(spectrum) ** 2
           / np.sum(window ** 2))
    freqs = np.fft.rfftfreq(voltage.size, dt)
    mask = (freqs > offset / 3.0) & (freqs < offset * 3.0)
    if not mask.any():
        raise ModelDomainError(
            f"offset {offset:g} Hz outside the waveform bandwidth")
    return float(psd[mask].mean())
