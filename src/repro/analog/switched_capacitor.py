"""Switched-capacitor settling: where speed*accuracy^2/power comes from.

Eq. 4 is an abstraction over circuits like this one: an SC amplifier
must settle to within a fraction of an LSB in half a clock period.
Settling combines a slew-limited phase (tail current) and a linear
phase (GBW), so the achievable clock for a given accuracy follows
directly from an OTA's evaluated performance -- connecting the sizing
engines to the system-level trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..technology.node import TechnologyNode
from .circuits import OtaDesign, OtaPerformance, SingleStageOta
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class ScAmplifier:
    """A switched-capacitor gain stage around an OTA.

    Parameters
    ----------
    sampling_capacitance:
        Input sampling capacitor C_s [F].
    gain:
        Closed-loop gain C_s/C_f.
    ota:
        Evaluated OTA performance driving the stage.
    """

    sampling_capacitance: float
    gain: float
    ota: OtaPerformance

    def __post_init__(self) -> None:
        if self.sampling_capacitance <= 0 or self.gain <= 0:
            raise ModelDomainError("capacitance and gain must be positive")

    @property
    def feedback_factor(self) -> float:
        """beta = C_f / (C_f + C_s) = 1 / (1 + gain)."""
        return 1.0 / (1.0 + self.gain)

    @property
    def closed_loop_bandwidth(self) -> float:
        """omega_cl = 2*pi*GBW*beta [rad/s]."""
        return 2.0 * math.pi * self.ota.gbw_hz * self.feedback_factor

    def settling_time(self, step: float, accuracy: float) -> float:
        """Time [s] to settle a ``step`` [V] output to 1/``accuracy``.

        Slewing until the remaining error fits the linear regime,
        then exponential settling at the closed-loop bandwidth.
        """
        if step <= 0 or accuracy <= 1:
            raise ModelDomainError("step must be positive, accuracy > 1")
        omega = self.closed_loop_bandwidth
        slew = self.ota.slew_rate
        if slew <= 0 or omega <= 0:
            return math.inf
        # Linear regime handles amplitudes below SR/omega.
        linear_amplitude = slew / omega
        if step > linear_amplitude:
            t_slew = (step - linear_amplitude) / slew
            remaining = linear_amplitude
        else:
            t_slew = 0.0
            remaining = step
        error_target = step / accuracy
        if remaining <= error_target:
            return t_slew
        n_tau = math.log(remaining / error_target)
        return t_slew + n_tau / omega

    def max_clock(self, step: float, n_bits: float,
                  settle_fraction: float = 0.45) -> float:
        """Highest clock [Hz] settling to 0.5 LSB of ``n_bits``.

        ``settle_fraction`` of the period is available for settling
        (the rest is the sampling phase and non-overlap time).
        """
        accuracy = 2.0 ** (n_bits + 1.0)
        t_settle = self.settling_time(step, accuracy)
        if math.isinf(t_settle) or t_settle <= 0:
            return 0.0
        return settle_fraction / t_settle

def design_sc_stage(node: TechnologyNode, ota_design: OtaDesign,
                    sampling_capacitance: float = 1e-12,
                    gain: float = 2.0) -> ScAmplifier:
    """Wrap an evaluated OTA sizing into an SC stage.

    The OTA's load is the series/parallel combination seen during the
    amplification phase, approximated as C_s*beta + C_load_ext.
    """
    beta = 1.0 / (1.0 + gain)
    load = sampling_capacitance * beta + 0.5e-12
    performance = SingleStageOta(node, load).evaluate(ota_design)
    return ScAmplifier(sampling_capacitance=sampling_capacitance,
                       gain=gain, ota=performance)
