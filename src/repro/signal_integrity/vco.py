"""VCO spur analysis: Fig. 9 of the paper.

The paper's example: a 2.3 GHz VCO integrated with a 250 kgate digital
block clocked at 13 MHz; substrate noise frequency-modulates the VCO
and "the digital clock is visible as FM modulation around the VCO
frequency", threatening out-of-band emission masks.

A behavioural VCO integrates its phase over a substrate-noise
waveform; the spectrum is estimated by FFT, and the narrowband-FM
spur level is cross-checked against the analytic prediction

    spur [dBc] = 20*log10(K_vco * A_m / (2 * f_m))

for a sinusoidal disturbance of amplitude A_m at offset f_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..substrate.swan import NoiseWaveform
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class VcoModel:
    """Behavioural VCO with substrate sensitivity.

    Parameters
    ----------
    center_frequency:
        Free-running frequency [Hz] (2.3 GHz in the paper).
    substrate_sensitivity:
        Frequency pushing K_sub [Hz/V]: how far substrate-node voltage
        pulls the oscillation frequency.  Tens of MHz/V is typical for
        an unshielded LC tank.
    amplitude:
        Output amplitude [V].
    """

    center_frequency: float = 2.3e9
    substrate_sensitivity: float = 20e6
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.center_frequency <= 0:
            raise ModelDomainError("center_frequency must be positive")

    def waveform(self, noise: NoiseWaveform,
                 sample_rate: Optional[float] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """VCO output [V] over the noise waveform's time span.

        Phase is the cumulative integral of f0 + K_sub * v_noise(t).
        ``sample_rate`` defaults to 16 samples per carrier cycle.
        """
        if sample_rate is None:
            sample_rate = 16.0 * self.center_frequency
        duration = float(noise.time[-1] - noise.time[0])
        n_samples = int(duration * sample_rate)
        time = noise.time[0] + np.arange(n_samples) / sample_rate
        v_noise = np.interp(time, noise.time, noise.voltage)
        instantaneous = (self.center_frequency
                         + self.substrate_sensitivity * v_noise)
        phase = 2.0 * math.pi * np.cumsum(instantaneous) / sample_rate
        return time, self.amplitude * np.cos(phase)

    def analytic_spur_level(self, disturbance_amplitude: float,
                            offset_frequency: float) -> float:
        """Narrowband-FM spur level [dBc] for a sinusoidal disturbance.

        beta = K_sub*A_m/f_m; spur = 20*log10(beta/2) for beta << 1.
        """
        if offset_frequency <= 0:
            raise ModelDomainError("offset_frequency must be positive")
        beta = (self.substrate_sensitivity * disturbance_amplitude
                / offset_frequency)
        return 20.0 * math.log10(max(beta / 2.0, 1e-30))


@dataclass
class Spectrum:
    """One-sided power spectrum in dBc (carrier-referred)."""

    frequency: np.ndarray   # Hz
    power_dbc: np.ndarray

    def level_at(self, frequency: float,
                 tolerance: Optional[float] = None) -> float:
        """Peak level [dBc] within ``tolerance`` of ``frequency``."""
        if tolerance is None:
            tolerance = 2.0 * (self.frequency[1] - self.frequency[0])
        mask = np.abs(self.frequency - frequency) <= tolerance
        if not mask.any():
            raise ModelDomainError(
                f"no spectrum bins within {tolerance} of {frequency}")
        return float(self.power_dbc[mask].max())

    def carrier_frequency(self) -> float:
        """Frequency of the strongest bin."""
        return float(self.frequency[int(np.argmax(self.power_dbc))])


def spectrum_of(time: np.ndarray, signal: np.ndarray) -> Spectrum:
    """Windowed FFT power spectrum, normalized to the carrier."""
    if time.size != signal.size or time.size < 16:
        raise ModelDomainError("need matching time/signal arrays, >= 16 points")
    dt = float(time[1] - time[0])
    window = np.hanning(signal.size)
    spectrum = np.fft.rfft(signal * window)
    power = np.abs(spectrum) ** 2
    power /= power.max()
    frequency = np.fft.rfftfreq(signal.size, dt)
    return Spectrum(frequency=frequency,
                    power_dbc=10.0 * np.log10(np.maximum(power, 1e-30)))


@dataclass(frozen=True)
class SpurReport:
    """Fig. 9 result: carrier and clock-offset spur levels."""

    carrier_frequency: float
    clock_frequency: float
    upper_spur_dbc: float
    lower_spur_dbc: float
    analytic_spur_dbc: float

    @property
    def worst_spur_dbc(self) -> float:
        """The higher of the two sideband spurs."""
        return max(self.upper_spur_dbc, self.lower_spur_dbc)


def vco_spur_experiment(vco: VcoModel, noise: NoiseWaveform,
                        clock_frequency: float) -> SpurReport:
    """Run the Fig. 9 experiment: spurs at +/- f_clk around the VCO.

    ``noise`` should contain the periodic substrate disturbance at
    ``clock_frequency`` (e.g. a SWAN waveform of the digital block).
    """
    if clock_frequency <= 0:
        raise ModelDomainError("clock_frequency must be positive")
    time, signal = vco.waveform(noise)
    spectrum = spectrum_of(time, signal)
    carrier = spectrum.carrier_frequency()
    # Fundamental of the periodic noise drives the first FM sideband.
    fundamental = _fundamental_amplitude(noise, clock_frequency)
    return SpurReport(
        carrier_frequency=carrier,
        clock_frequency=clock_frequency,
        upper_spur_dbc=spectrum.level_at(carrier + clock_frequency),
        lower_spur_dbc=spectrum.level_at(carrier - clock_frequency),
        analytic_spur_dbc=vco.analytic_spur_level(
            fundamental, clock_frequency),
    )


def _fundamental_amplitude(noise: NoiseWaveform,
                           frequency: float) -> float:
    """Amplitude [V] of the noise's component at ``frequency``."""
    duration = float(noise.time[-1] - noise.time[0])
    n_periods = max(int(duration * frequency), 1)
    # Trim to an integer number of periods for a clean projection.
    t_end = noise.time[0] + n_periods / frequency
    mask = noise.time <= t_end
    t = noise.time[mask]
    v = noise.voltage[mask]
    omega = 2.0 * math.pi * frequency
    span = float(t[-1] - t[0])
    cos_part = 2.0 * float(
        np.trapezoid(v * np.cos(omega * t), t)) / span
    sin_part = 2.0 * float(
        np.trapezoid(v * np.sin(omega * t), t)) / span
    return float(math.hypot(cos_part, sin_part))


def synthetic_clock_noise(clock_frequency: float, duration: float,
                          amplitude: float = 1e-3,
                          pulse_width: Optional[float] = None,
                          dt: Optional[float] = None) -> NoiseWaveform:
    """Synthetic periodic substrate noise: one spike per clock edge.

    A convenient stand-in for a full SWAN run when only the Fig. 9
    modulation mechanism is being studied.
    """
    if clock_frequency <= 0 or duration <= 0:
        raise ModelDomainError("clock_frequency and duration must be positive")
    if dt is None:
        dt = 1.0 / (clock_frequency * 200.0)
    if pulse_width is None:
        pulse_width = 10.0 * dt
    time = np.arange(0.0, duration, dt)
    phase = np.mod(time, 1.0 / clock_frequency)
    voltage = amplitude * np.exp(-phase / pulse_width)
    return NoiseWaveform(time=time, voltage=voltage)
