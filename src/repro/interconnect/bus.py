"""Data-dependent bus timing: crosstalk as a delay problem.

Section 2.3's coupling capacitance does not just burn power -- on a
parallel bus it makes *delay data-dependent*: a wire switching against
both neighbours sees its coupling capacitance Miller-doubled, one
switching with them sees it vanish.  This module computes per-pattern
delay factors, the worst/best-case spread of a bus, and what
crosstalk-avoidance coding (forbidding the worst patterns) buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.constants import EPSILON_0
from ..technology.node import TechnologyNode
from .wire import WireGeometry, capacitance_per_length, wire_delay
from ..robust.errors import ModelDomainError


def coupling_ratio(geom: WireGeometry) -> float:
    """lambda = C_coupling / C_ground of one wire in a bus.

    Grows with wire aspect ratio (taller, closer wires): the reason
    the problem worsens with scaling.
    """
    eps = geom.dielectric_k * EPSILON_0
    c_couple = 2.0 * eps * geom.thickness / geom.spacing
    c_ground = 2.0 * eps * geom.width / geom.pitch + eps
    return c_couple / c_ground


#: Miller factors by (left, right) neighbour activity relative to the
#: victim: -1 = opposite transition, 0 = quiet, +1 = same transition.
def miller_factor(left: int, right: int) -> float:
    """Effective coupling multiplier for a neighbour pattern."""
    factors = {-1: 2.0, 0: 1.0, 1: 0.0}
    try:
        return factors[left] + factors[right]
    except KeyError:
        raise ModelDomainError("neighbour activity must be -1, 0 or +1")


def pattern_delay(geom: WireGeometry, length: float,
                  left: int, right: int) -> float:
    """Victim wire delay [s] for one neighbour switching pattern.

    Effective capacitance per length: c_ground + miller * c_couple;
    delay keeps the r*c_eff*L^2/2 form of eq. 3.
    """
    base_c = capacitance_per_length(geom)
    lam = coupling_ratio(geom)
    c_ground = base_c / (1.0 + lam)
    c_couple = base_c - c_ground
    c_eff = c_ground + 0.5 * miller_factor(left, right) * c_couple
    scale = c_eff / base_c
    return wire_delay(geom, length) * scale


@dataclass(frozen=True)
class BusTiming:
    """Delay spread of one bus geometry."""

    best_delay: float          # all neighbours in phase [s]
    nominal_delay: float       # quiet neighbours [s]
    worst_delay: float         # both neighbours opposite [s]
    coupling_lambda: float

    @property
    def spread(self) -> float:
        """Worst / best delay ratio: the data dependence."""
        if self.best_delay <= 0:
            return math.inf
        return self.worst_delay / self.best_delay

    @property
    def worst_over_nominal(self) -> float:
        """Worst-case pushout vs the quiet-neighbour delay."""
        return self.worst_delay / self.nominal_delay


def bus_timing(node: TechnologyNode, length: float,
               layer: int = 1) -> BusTiming:
    """Best/nominal/worst delay of a minimum-pitch bus wire."""
    geom = WireGeometry.for_node(node, layer)
    return BusTiming(
        best_delay=pattern_delay(geom, length, 1, 1),
        nominal_delay=pattern_delay(geom, length, 0, 0),
        worst_delay=pattern_delay(geom, length, -1, -1),
        coupling_lambda=coupling_ratio(geom),
    )


def shielding_cost(node: TechnologyNode, n_bits: int = 32,
                   length: float = 1e-3,
                   layer: int = 1) -> Dict[str, float]:
    """Worst-case delay and wiring cost of three bus disciplines.

    * plain: minimum pitch, worst pattern possible;
    * shielded: a grounded wire between every pair (quiet neighbours
      guaranteed, 2x the tracks);
    * coded: crosstalk-avoidance coding forbids opposite-phase
      patterns on adjacent wires (~1.3x the bits, worst Miller = 1).
    """
    if n_bits < 2:
        raise ModelDomainError("n_bits must be >= 2")
    geom = WireGeometry.for_node(node, layer)
    plain = pattern_delay(geom, length, -1, -1)
    shielded = pattern_delay(geom, length, 0, 0)
    coded = pattern_delay(geom, length, 0, -1)
    return {
        "plain_worst_ps": plain * 1e12,
        "shielded_worst_ps": shielded * 1e12,
        "coded_worst_ps": coded * 1e12,
        "plain_tracks": float(n_bits),
        "shielded_tracks": float(2 * n_bits - 1),
        "coded_tracks": float(math.ceil(n_bits * 1.3)),
        "shielding_speedup": plain / shielded,
        "coding_speedup": plain / coded,
    }


def crosstalk_delay_trend(nodes: Sequence[TechnologyNode],
                          length: float = 1e-3
                          ) -> List[Dict[str, float]]:
    """Data-dependent delay spread per node.

    lambda grows with the aspect ratio, so the worst/best spread
    widens with scaling: timing sign-off must either assume the worst
    pattern (margin) or control the data (shields/coding) -- another
    of the paper's compounding taxes.
    """
    rows = []
    for node in nodes:
        timing = bus_timing(node, length)
        rows.append({
            "node": node.name,
            "lambda": timing.coupling_lambda,
            "worst_over_best": timing.spread,
            "worst_over_nominal": timing.worst_over_nominal,
        })
    return rows
