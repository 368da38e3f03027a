"""Pelgrom-law device matching (intra-die variability).

The workhorse mismatch model of analog design, and the origin of the
"mismatch limit" in the paper's eq. 4 / Fig. 6:

    sigma(delta_VT)   = A_VT   / sqrt(W*L)
    sigma(delta_beta)/beta = A_beta / sqrt(W*L)

with an optional distance term for far-apart devices.  The A_VT
coefficient improves roughly proportionally to t_ox with scaling --
the "mismatch improves slightly" observation in section 4.1.
"""

from __future__ import annotations

import math
from typing import Optional

from ..robust.validate import validated
from ..technology.node import TechnologyNode


@validated(_result_finite=True, width="positive", length="positive",
           distance="non-negative",
           distance_coefficient="non-negative")
def sigma_delta_vth(node: TechnologyNode, width: float, length: float,
                    distance: float = 0.0,
                    distance_coefficient: float = 1e-6) -> float:
    """Pelgrom sigma of the V_T difference of a device pair [V].

    ``distance_coefficient`` [V/m] adds the long-range gradient term:
    sigma^2 = (A_VT^2)/(W*L) + (S_VT * D)^2.
    """
    area_term = node.avt ** 2 / (width * length)
    dist_term = (distance_coefficient * distance) ** 2
    return math.sqrt(area_term + dist_term)


@validated(_result_finite=True, width="positive", length="positive")
def sigma_delta_beta(node: TechnologyNode, width: float,
                     length: float) -> float:
    """Pelgrom sigma of the relative current-factor difference."""
    return node.abeta / math.sqrt(width * length)


@validated(_result_finite=True, width="positive", length="positive",
           matching_coefficient="positive")
def sigma_resistor_mismatch(node: TechnologyNode, width: float,
                            length: float,
                            matching_coefficient: Optional[float] = None
                            ) -> float:
    """Pelgrom sigma of the relative mismatch of a resistor pair.

    Same area law as device matching: sigma(dR/R) = A_R / sqrt(W*L).
    Poly/diffusion resistors match roughly 2x worse than MOS current
    factors at equal area, so ``matching_coefficient`` [m] defaults to
    ``2 * node.abeta``.  This is the per-leg error source of the R-2R
    DAC in :mod:`repro.analog.chain`.
    """
    a_r = (2.0 * node.abeta if matching_coefficient is None
           else matching_coefficient)
    return a_r / math.sqrt(width * length)


@validated(_result_finite=True, width="positive", length="positive",
           matching_coefficient="positive")
def sigma_capacitor_mismatch(node: TechnologyNode, width: float,
                             length: float,
                             matching_coefficient: Optional[float] = None
                             ) -> float:
    """Pelgrom sigma of the relative mismatch of a capacitor pair.

    sigma(dC/C) = A_C / sqrt(W*L) with ``matching_coefficient`` [m]
    defaulting to ``node.abeta`` (MIM/MOM caps match about as well as
    MOS current factors).  Feeds the SAR cap-DAC mismatch in
    :mod:`repro.analog.chain`; a unit cap of ``2**i`` parallel units
    de-rates by ``sqrt(2**i)`` exactly like any parallel combination.
    """
    a_c = node.abeta if matching_coefficient is None \
        else matching_coefficient
    return a_c / math.sqrt(width * length)


@validated(_result_finite=True, width="positive", length="positive",
           gm_over_id="positive")
def offset_sigma_diff_pair(node: TechnologyNode, width: float,
                           length: float, gm_over_id: float = 10.0,
                           include_beta: bool = True) -> float:
    """Input-referred offset sigma [V] of a differential pair.

    sigma_off^2 = sigma_VT^2 + (sigma_beta / (gm/Id))^2 -- the V_T term
    dominates for realistic bias points, which is why A_VT alone sets
    the mismatch limit in Fig. 6.
    """
    svt = sigma_delta_vth(node, width, length)
    if not include_beta:
        return svt
    sbeta = sigma_delta_beta(node, width, length)
    return math.sqrt(svt ** 2 + (sbeta / gm_over_id) ** 2)
