"""Process corners: inter-die variation as correlated parameter shifts.

Section 2.4 of the paper splits variability into *inter-die* (all
devices on a die shift together -- handled with corners) and *intra-die*
(device-to-device mismatch -- handled statistically, see
:mod:`repro.variability`).  This module provides the classic five-corner
model plus arbitrary sigma-parameterized corners.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from ..technology.node import TechnologyNode
from ..robust.validate import validated
from .mosfet import Mosfet


class Corner(enum.Enum):
    """The classic five process corners (NMOS/PMOS speed)."""

    TT = "typical-typical"
    FF = "fast-fast"
    SS = "slow-slow"
    FS = "fast-nmos-slow-pmos"
    SF = "slow-nmos-fast-pmos"


@dataclass(frozen=True)
class CornerSpec:
    """Inter-die shifts defining a corner, in units of sigma.

    Positive ``vth_sigma`` means *higher* V_T (slower); positive
    ``length_sigma`` means *longer* channel (slower); positive
    ``tox_sigma`` means thicker oxide (slower, less gate leakage).
    """

    vth_sigma_n: float
    vth_sigma_p: float
    length_sigma: float = 0.0
    tox_sigma: float = 0.0


_CORNER_SPECS: Dict[Corner, CornerSpec] = {
    Corner.TT: CornerSpec(0.0, 0.0, 0.0, 0.0),
    Corner.FF: CornerSpec(-3.0, -3.0, -3.0, -3.0),
    Corner.SS: CornerSpec(+3.0, +3.0, +3.0, +3.0),
    Corner.FS: CornerSpec(-3.0, +3.0, 0.0, 0.0),
    Corner.SF: CornerSpec(+3.0, -3.0, 0.0, 0.0),
}


@dataclass(frozen=True)
class InterDieSigmas:
    """One-sigma inter-die spreads of the global parameters.

    Defaults follow the paper's premise that the same *absolute*
    tolerance hurts more as nominals shrink: sigma_VT is an absolute
    voltage, sigma_L and sigma_tox are relative fractions.
    """

    vth: float = 0.015      # V
    length_rel: float = 0.04
    tox_rel: float = 0.02


def apply_corner(node: TechnologyNode, corner: Corner,
                 sigmas: InterDieSigmas = InterDieSigmas()
                 ) -> TechnologyNode:
    """Return the node shifted to ``corner``.

    Only the NMOS shift is applied to the shared ``vth`` field.
    """
    spec = _CORNER_SPECS[corner]
    return node.with_overrides(
        name=f"{node.name}@{corner.name}",
        vth=node.vth + spec.vth_sigma_n * sigmas.vth,
        feature_size=node.feature_size * (1 + spec.length_sigma
                                          * sigmas.length_rel),
        tox=node.tox * (1 + spec.tox_sigma * sigmas.tox_rel),
    )


@validated(n_sigma="non-negative")
def worst_case_vth(node: TechnologyNode,
                   sigmas: InterDieSigmas = InterDieSigmas(),
                   n_sigma: float = 3.0) -> float:
    """The slow-corner V_T [V] that worst-case design must assume.

    Feeds the section-3.1 energy-penalty analysis: circuits are sized
    for this V_T even though typical dies do not need it.
    """
    return node.vth + n_sigma * sigmas.vth


def corner_spread_summary(node: TechnologyNode,
                          sigmas: InterDieSigmas = InterDieSigmas()
                          ) -> List[Dict[str, float]]:
    """Summarize drive-current spread across corners (for reports)."""
    rows = []
    for corner in Corner:
        shifted = apply_corner(node, corner, sigmas)
        device = Mosfet(shifted, width=2.0 * shifted.feature_size)
        rows.append({
            "corner": corner.name,
            "vth_V": shifted.vth,
            "ion_uA": device.on_current() * 1e6,
            "ioff_nA": device.off_current() * 1e9,
        })
    return rows
