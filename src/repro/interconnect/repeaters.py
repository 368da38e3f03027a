"""Repeater insertion: linearizing the quadratic wire delay.

Eq. 3's L^2 dependence is the reason long wires get repeated: splitting
a wire into k segments with buffers turns the delay linear in L at the
cost of area and power -- one of the "architectural" overheads the
paper's section 3.3 alludes to.  Classic Bakoglu closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..technology.node import TechnologyNode
from ..devices.capacitance import (inverter_input_capacitance,
                                   inverter_self_load)
from .wire import (WireGeometry, capacitance_per_length,
                   resistance_per_length, wire_delay)
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class DriverModel:
    """Linearized inverter driver for repeater analysis.

    ``resistance_unit`` and ``capacitance_unit`` describe a unit-size
    (minimum) inverter; a driver of size h has R = R0/h, C = h*C0.
    """

    resistance_unit: float
    capacitance_unit: float
    self_load_unit: float = 0.0

    @classmethod
    def for_node(cls, node: TechnologyNode) -> "DriverModel":
        """Derive the unit-inverter model from the node parameters.

        R0 is estimated from the on-current of a 2L-wide NMOS at VDD:
        R ~ VDD / I_on (switching-trajectory average ~ 0.7 factor
        absorbed in the estimate).
        """
        from ..devices.mosfet import Mosfet
        nmos_width = 2.0 * node.feature_size
        device = Mosfet(node, width=nmos_width)
        r0 = 0.7 * node.vdd / device.on_current()
        c0 = inverter_input_capacitance(node, nmos_width)
        self_load = inverter_self_load(node, nmos_width)
        return cls(resistance_unit=r0, capacitance_unit=c0,
                   self_load_unit=self_load)

    def intrinsic_delay(self) -> float:
        """Unloaded inverter delay R0*(C0 + Cself) [s]."""
        return 0.69 * self.resistance_unit * (self.capacitance_unit
                                              + self.self_load_unit)


@dataclass(frozen=True)
class RepeaterSolution:
    """Optimal repeater insertion for one wire."""

    n_repeaters: int
    size: float                # repeater size in unit inverters
    delay: float               # total wire delay with repeaters [s]
    delay_unrepeated: float    # plain r*c*L^2/2 delay [s]
    energy_overhead: float     # repeater switching energy per transition [J]

    @property
    def speedup(self) -> float:
        """Unrepeated / repeated delay ratio."""
        if self.delay <= 0:
            return float("inf")
        return self.delay_unrepeated / self.delay


def optimal_repeater_count(driver: DriverModel, geom: WireGeometry,
                           length: float) -> float:
    """Bakoglu's k_opt = sqrt(0.4*R_w*C_w / (0.7*R0*C0)) (continuous)."""
    r_wire = resistance_per_length(geom) * length
    c_wire = capacitance_per_length(geom) * length
    denom = 0.7 * driver.resistance_unit * driver.capacitance_unit
    if denom <= 0:
        raise ModelDomainError("driver model must have positive RC product")
    return math.sqrt(0.4 * r_wire * c_wire / denom)


def optimal_repeater_size(driver: DriverModel, geom: WireGeometry) -> float:
    """Bakoglu's h_opt = sqrt(R0*c / (r*C0)) in unit inverters."""
    r = resistance_per_length(geom)
    c = capacitance_per_length(geom)
    return math.sqrt(driver.resistance_unit * c
                     / (r * driver.capacitance_unit))


def insert_repeaters(node: TechnologyNode, length: float,
                     layer: int = 1,
                     driver: Optional[DriverModel] = None
                     ) -> RepeaterSolution:
    """Optimally buffer a wire of ``length`` [m] on ``layer``.

    Returns the repeated delay (0.69/0.38 RC segment formula summed
    over k segments) and the unrepeated eq.-3 delay for comparison.
    """
    if length <= 0:
        raise ModelDomainError("length must be positive")
    geom = WireGeometry.for_node(node, layer)
    driver = driver or DriverModel.for_node(node)
    k = max(int(round(optimal_repeater_count(driver, geom, length))), 1)
    h = max(optimal_repeater_size(driver, geom), 1.0)
    r = resistance_per_length(geom)
    c = capacitance_per_length(geom)
    seg = length / k
    r_drv = driver.resistance_unit / h
    c_in = h * driver.capacitance_unit
    c_self = h * driver.self_load_unit
    per_segment = (0.69 * r_drv * (c_self + c * seg + c_in)
                   + r * seg * (0.38 * c * seg + 0.69 * c_in))
    energy = k * (c_in + c_self) * node.vdd ** 2
    return RepeaterSolution(
        n_repeaters=k,
        size=h,
        delay=k * per_segment,
        delay_unrepeated=wire_delay(geom, length),
        energy_overhead=energy,
    )
