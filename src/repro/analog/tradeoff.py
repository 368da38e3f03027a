"""The analog speed-accuracy-power trade-off: eq. 4 and Fig. 6.

Kinget/Steyaert ([7] in the paper): for a circuit limited by kT/C
thermal noise or by device mismatch,

    Speed * Accuracy^2 / Power = technology constant.           (eq. 4)

* Thermal-noise limit: storing a signal with dynamic range DR on a
  capacitor requires C >= kT * DR^2 / V_pp^2; charging it at speed f
  costs P = C * V_pp^2 * f * eff -> P/(f*DR^2) = kT / efficiency --
  temperature only.
* Mismatch limit: an accuracy of DR against V_T offsets requires
  device area ~ (A_VT*DR/V_pp)^2; the gate capacitance of that area
  sets the power at a given speed -> P/(f*DR^2) = A_VT^2*C'_ox /
  efficiency -- a *process* constant, historically ~2 decades above
  the thermal one.  That gap is Fig. 6.

Accuracy here is the voltage dynamic range DR (= 2^N * sqrt(1.5) for
an N-bit converter at SNR = 6.02N + 1.76 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.constants import kt_energy
from ..robust.errors import ModelDomainError
from ..robust.validate import validated
from ..technology.node import TechnologyNode


#: Fraction of supply swing a realistic circuit uses, and the power
#: efficiency of charging the signal capacitance: class-A circuits
#: deliver ~1 % of their supply power as signal charge.
DEFAULT_SWING_FRACTION = 0.6
DEFAULT_EFFICIENCY = 0.01


@validated(_result_finite=True, n_bits="positive")
def accuracy_from_bits(n_bits: float) -> float:
    """Voltage dynamic range equivalent to ``n_bits`` of SNR.

    DR = 2^N * sqrt(1.5): the ratio of RMS full-scale sine to the
    quantization-noise floor.
    """
    try:
        return 2.0 ** n_bits * math.sqrt(1.5)
    except OverflowError:
        raise ModelDomainError(
            f"n_bits={n_bits!r} overflows the dynamic-range "
            f"computation") from None


@validated(_result_finite=True, temperature="positive",
           efficiency="fraction")
def thermal_noise_constant(temperature: float = 300.0,
                           efficiency: float = DEFAULT_EFFICIENCY) -> float:
    """Eq. 4's right-hand side for the thermal-noise limit [J].

    P / (Speed * Accuracy^2) = 8*kT / efficiency: depends only on
    temperature (and implementation efficiency), NOT on technology --
    the fundamental floor in Fig. 6.
    """
    return 8.0 * kt_energy(temperature) / efficiency


@validated(_result_finite=True, swing_fraction="fraction",
           efficiency="fraction")
def mismatch_constant(node: TechnologyNode,
                      swing_fraction: float = DEFAULT_SWING_FRACTION,
                      efficiency: float = DEFAULT_EFFICIENCY) -> float:
    """Eq. 4's right-hand side for the mismatch limit [J].

    P / (Speed * Accuracy^2) = 2 * A_VT^2 * C_ox' * (V_DD/V_pp)^2 /
    efficiency: set by the process matching quality A_VT and oxide
    capacitance.  Improves (slowly) with scaling since A_VT ~ t_ox.
    """
    swing_penalty = 1.0 / swing_fraction ** 2
    return 2.0 * node.avt ** 2 * node.cox * swing_penalty / efficiency


@validated(_result_finite=True, speed="positive", accuracy="positive",
           temperature="positive", efficiency="fraction")
def minimum_power(speed: float, accuracy: float,
                  node: Optional[TechnologyNode] = None,
                  temperature: float = 300.0,
                  efficiency: float = DEFAULT_EFFICIENCY) -> Dict[str, float]:
    """Minimum power [W] for a (speed, accuracy) spec under each limit.

    With a ``node`` the mismatch limit is included (it dominates for
    untrimmed circuits, the paper's Fig. 6 observation).
    """
    thermal = speed * accuracy ** 2 * thermal_noise_constant(
        temperature, efficiency)
    result = {"thermal_W": thermal}
    if node is not None:
        mismatch = speed * accuracy ** 2 * mismatch_constant(
            node, efficiency=efficiency)
        result["mismatch_W"] = mismatch
        result["binding_W"] = max(thermal, mismatch)
    return result


@dataclass(frozen=True)
class TradeoffPoint:
    """One design point in the P/(S*A^2) plane of Fig. 6."""

    label: str
    speed: float          # samples or Hz
    n_bits: float
    power: float          # W

    @property
    def accuracy(self) -> float:
        """Voltage dynamic range."""
        return accuracy_from_bits(self.n_bits)

    @property
    def figure_of_merit(self) -> float:
        """P / (Speed * Accuracy^2) [J] -- eq. 4's left side inverted."""
        return self.power / (self.speed * self.accuracy ** 2)


def tradeoff_plane(node: TechnologyNode,
                   speeds: Sequence[float],
                   n_bits: float = 10.0,
                   temperature: float = 300.0) -> List[Dict[str, float]]:
    """Fig. 6 series: minimum power vs speed at fixed resolution.

    Returns the thermal and mismatch limit lines (log-log straight
    lines two decades apart) for overlay with ADC survey points.
    """
    accuracy = accuracy_from_bits(n_bits)
    rows = []
    for speed in speeds:
        limits = minimum_power(speed, accuracy, node, temperature)
        rows.append({
            "speed_Hz": speed,
            "thermal_limit_W": limits["thermal_W"],
            "mismatch_limit_W": limits["mismatch_W"],
        })
    return rows


def limit_gap(node: TechnologyNode, temperature: float = 300.0) -> float:
    """Mismatch-to-thermal constant ratio (the Fig. 6 vertical gap).

    Historically ~100x (2 decades); scaling closes it slowly as A_VT
    improves with t_ox.
    """
    return mismatch_constant(node) / thermal_noise_constant(temperature)
