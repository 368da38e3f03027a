"""Wire inductance: when RC stops being the whole story.

Section 4.3 notes crosstalk becomes *inductive* "at higher
frequencies".  This module adds the L to the RC machinery: partial
self- and mutual inductance of on-chip wires, the Ismail-Friedman
criterion for when inductance affects delay, RLC response metrics
(overshoot/ringing the RC model cannot predict), and inductive
crosstalk estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.constants import EPSILON_0
from ..technology.node import TechnologyNode
from .wire import (WireGeometry, capacitance_per_length,
                   resistance_per_length)
from ..robust.errors import ModelDomainError

#: Vacuum permeability [H/m].
MU_0 = 4.0e-7 * math.pi


def self_inductance_per_length(geom: WireGeometry,
                               ground_distance: Optional[float] = None
                               ) -> float:
    """Partial self-inductance per unit length [H/m].

    Microstrip-over-ground estimate: L' = (mu0 / 2pi) * ln(2*pi*h /
    (w + t)) + internal term, with h the distance to the return
    plane.  ~0.2-1 pH/um for on-chip wires.
    """
    if ground_distance is None:
        ground_distance = 10.0 * geom.pitch
    if ground_distance <= 0:
        raise ModelDomainError("ground_distance must be positive")
    w_eff = geom.width + geom.thickness
    ratio = max(2.0 * math.pi * ground_distance / w_eff, 1.1)
    return MU_0 / (2.0 * math.pi) * (math.log(ratio) + 0.25)


def mutual_inductance_per_length(geom: WireGeometry,
                                 separation: Optional[float] = None,
                                 ground_distance: Optional[float] = None
                                 ) -> float:
    """Mutual inductance per unit length to a parallel wire [H/m].

    M' = (mu0 / 2pi) * ln(1 + (2h/d)^2) / 2 for two microstrips at
    separation d over a plane at height h.
    """
    if separation is None:
        separation = geom.pitch
    if ground_distance is None:
        ground_distance = 10.0 * geom.pitch
    if separation <= 0 or ground_distance <= 0:
        raise ModelDomainError("separation and ground_distance must be "
                         "positive")
    return MU_0 / (4.0 * math.pi) * math.log(
        1.0 + (2.0 * ground_distance / separation) ** 2)


@dataclass(frozen=True)
class RlcCharacter:
    """RLC character of one driver + wire combination."""

    length: float
    resistance: float         # total wire R [ohm]
    inductance: float         # total wire L [H]
    capacitance: float        # total wire C [F]
    driver_resistance: float  # ohm
    damping: float            # zeta of the lumped RLC
    inductance_matters: bool  # Ismail-Friedman window

    @property
    def characteristic_impedance(self) -> float:
        """sqrt(L/C) of the line [ohm]."""
        return math.sqrt(self.inductance / self.capacitance)

    @property
    def overshoot_fraction(self) -> float:
        """Step-response overshoot (0 for overdamped lines)."""
        if self.damping >= 1.0:
            return 0.0
        return math.exp(-math.pi * self.damping
                        / math.sqrt(1.0 - self.damping ** 2))


def rlc_character(geom: WireGeometry, length: float,
                  driver_resistance: float,
                  ground_distance: Optional[float] = None
                  ) -> RlcCharacter:
    """Classify a wire's RLC behaviour.

    The Ismail-Friedman window: inductance shapes the response when

        2 * sqrt(L/C) / (R_total) > 1   (underdamped-ish)  AND
        the line is long enough that R_wire < 2 * sqrt(L/C)*...

    implemented as:  tr/2sqrt(LC) < length < 2/R' * sqrt(L'/C').
    Here we use the damping factor of the lumped equivalent:
    zeta = (R_drv + R_wire/2) / (2 * sqrt(L/C)).
    """
    if length <= 0:
        raise ModelDomainError("length must be positive")
    if driver_resistance < 0:
        raise ModelDomainError("driver_resistance must be non-negative")
    r = resistance_per_length(geom) * length
    c = capacitance_per_length(geom) * length
    l = self_inductance_per_length(geom, ground_distance) * length
    z0 = math.sqrt(l / c)
    damping = (driver_resistance + r / 2.0) / (2.0 * z0)
    upper_limit = (2.0 / resistance_per_length(geom)
                   * math.sqrt(self_inductance_per_length(
                       geom, ground_distance)
                       / capacitance_per_length(geom)))
    matters = damping < 1.0 and length < upper_limit
    return RlcCharacter(
        length=length,
        resistance=r,
        inductance=l,
        capacitance=c,
        driver_resistance=driver_resistance,
        damping=damping,
        inductance_matters=matters,
    )


def inductive_crosstalk_fraction(geom: WireGeometry, length: float,
                                 rise_time: float,
                                 driver_resistance: float,
                                 vdd: float,
                                 separation: Optional[float] = None
                                 ) -> float:
    """Victim glitch (fraction of V_DD) from mutual inductance.

    First-order transmission-line bound: the inductive coupling
    coefficient K_L = M'/L' sets the far-end glitch for edges faster
    than the line flight time; slower edges are attenuated by
    t_flight / t_rise.  A 0.5 return-path sharing factor reflects the
    current split between the two neighbours.  Unshielded parallel
    global wires can reach tens of percent -- the reason shields are
    inserted.
    """
    if rise_time <= 0 or vdd <= 0:
        raise ModelDomainError("rise_time and vdd must be positive")
    k_l = (mutual_inductance_per_length(geom, separation)
           / self_inductance_per_length(geom))
    l_total = self_inductance_per_length(geom) * length
    c_total = capacitance_per_length(geom) * length
    t_flight = math.sqrt(l_total * c_total)
    edge_factor = min(2.0 * t_flight / rise_time, 1.0)
    return min(0.5 * k_l * edge_factor, 1.0)


def inductance_relevance_trend(nodes: Sequence[TechnologyNode],
                               length: float = 3e-3
                               ) -> List[Dict[str, float]]:
    """When does L matter?  Per-node check on a global wire.

    Fast slew rates (shrinking gate delays) push di/dt up while the
    top-layer R stays moderate: inductive effects grow with scaling
    -- the "other signal integrity problems [that] will show up".
    """
    from .repeaters import DriverModel
    rows = []
    for node in nodes:
        geom = WireGeometry.for_node(node, node.metal_layers)
        driver = DriverModel.for_node(node)
        # A strong global driver: 32x unit inverter.
        r_drv = driver.resistance_unit / 32.0
        character = rlc_character(geom, length, r_drv)
        rise_time = 4.0 * driver.intrinsic_delay()
        xtalk = inductive_crosstalk_fraction(
            geom, length, rise_time, r_drv, node.vdd)
        rows.append({
            "node": node.name,
            "damping_zeta": character.damping,
            "z0_ohm": character.characteristic_impedance,
            "overshoot_pct": character.overshoot_fraction * 100.0,
            "inductance_matters": float(character.inductance_matters),
            "inductive_xtalk_pct": xtalk * 100.0,
        })
    return rows
