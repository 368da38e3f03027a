"""Crosstalk and supply-coupling models (section 4.3's inventory).

The paper lists the mixed-signal interaction channels: "capacitive or
(at higher frequencies) inductive crosstalk, supply line or substrate
couplings, thermal interactions, coupling through the package".
Substrate coupling lives in :mod:`repro.substrate`; this module covers
the wire-to-wire and supply-rail channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode
from ..interconnect.wire import WireGeometry, capacitance_per_length
from ..core.constants import EPSILON_0
from ..robust.errors import ModelDomainError


def capacitive_crosstalk_ratio(geom: WireGeometry,
                               victim_ground_cap: float = 0.0,
                               length: float = 1e-3) -> float:
    """Peak victim glitch as a fraction of the aggressor swing.

    Charge-sharing between the coupling capacitance C_c and the
    victim's total grounded capacitance: V_victim/V_aggressor =
    C_c / (C_c + C_gnd).
    """
    eps = geom.dielectric_k * EPSILON_0
    c_couple = eps * geom.thickness / geom.spacing * length
    c_ground = (2.0 * eps * geom.width / geom.pitch + eps) * length \
        + victim_ground_cap
    return c_couple / (c_couple + c_ground)


def crosstalk_trend(nodes: Sequence[TechnologyNode],
                    length: float = 1e-3) -> List[Dict[str, float]]:
    """Crosstalk ratio per node at minimum pitch.

    Grows with scaling as the aspect ratio rises (taller, closer
    wires) -- a digital noise-margin threat and an analog-on-SoC one.
    """
    rows = []
    for node in nodes:
        geom = WireGeometry.for_node(node, 1)
        rows.append({
            "node": node.name,
            "pitch_nm": geom.pitch * 1e9,
            "crosstalk_ratio": capacitive_crosstalk_ratio(geom,
                                                          length=length),
        })
    return rows


@dataclass(frozen=True)
class SupplyRail:
    """Power-delivery parasitics of one supply domain."""

    resistance: float = 0.5        # ohm (rail + package)
    inductance: float = 2e-9       # H (bond wire + lead)
    decoupling: float = 1e-9       # F (on-chip decap)


def supply_bounce(rail: SupplyRail, peak_current: float,
                  rise_time: float) -> Dict[str, float]:
    """Ground/supply bounce of a switching event [V].

    L*di/dt plus IR drop, with the on-chip decap limiting the bounce
    to the charge-sharing value when it is large enough.
    """
    if peak_current < 0 or rise_time <= 0:
        raise ModelDomainError("bad event parameters")
    ldidt = rail.inductance * peak_current / rise_time
    ir = rail.resistance * peak_current
    # Decap limit: the charge drawn during the edge comes off the
    # decap, sagging it by Q/C.
    charge = 0.5 * peak_current * rise_time
    decap_limit = charge / rail.decoupling if rail.decoupling > 0 \
        else float("inf")
    bounce = min(ldidt + ir, decap_limit + ir)
    return {
        "l_didt_V": ldidt,
        "ir_drop_V": ir,
        "decap_limited_V": decap_limit,
        "bounce_V": bounce,
    }


def simultaneous_switching_noise(node: TechnologyNode, n_drivers: int,
                                 rail: SupplyRail = SupplyRail(),
                                 load_per_driver: float = 50e-15
                                 ) -> Dict[str, float]:
    """SSN of ``n_drivers`` switching together in ``node``.

    The classic output-buffer analysis: peak current per driver
    ~ C*V/t_r with t_r ~ 4 FO4.
    """
    if n_drivers < 1:
        raise ModelDomainError("n_drivers must be >= 1")
    from ..digital.delay import fo4_delay_model
    rise_time = 4.0 * fo4_delay_model(node).delay()
    peak_per_driver = load_per_driver * node.vdd / rise_time
    result = supply_bounce(rail, n_drivers * peak_per_driver, rise_time)
    result["peak_current_A"] = n_drivers * peak_per_driver
    result["bounce_fraction_of_vdd"] = result["bounce_V"] / node.vdd
    return result
