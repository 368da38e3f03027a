"""Worst-case sizing and its energy penalty (section 3.1 of the paper).

The argument reproduced here:

1. Delay requirements must hold at the *worst-case* V_T (nominal +
   n*sigma), so gates are upsized relative to what the typical die
   needs.
2. Dynamic energy C*V_DD^2 does not care about the actual V_T -- the
   extra capacitance of the oversized gates is paid on *every* die.
3. The relative sigma of V_T grows with scaling (Fig. 4), so the
   penalty grows node over node: "the effect of worst-case oversized
   design on the energy consumption of circuits will be significant."

Benchmark Tab C regenerates this trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode
from ..devices.capacitance import (inverter_input_capacitance,
                                   inverter_self_load)
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class SizingResult:
    """Sizing of one stage for a delay target at a given V_T."""

    width: float           # NMOS width [m]
    delay: float           # achieved delay [s]
    energy: float          # switching energy C*V^2 [J]
    vth_assumed: float     # V_T the sizing was done for [V]


def stage_delay(node: TechnologyNode, width: float,
                external_load: float, vth: Optional[float] = None) -> float:
    """Delay [s] of one inverter stage driving ``external_load``.

    Alpha-power-law drive, self-load included: upsizing helps the
    external-load term but never removes the self-load floor.
    """
    if width <= 0 or external_load < 0:
        raise ModelDomainError("width must be positive, load non-negative")
    vth = vth if vth is not None else node.vth
    vdd = node.vdd
    if vth >= vdd:
        raise ModelDomainError("vth must be below vdd")
    alpha = node.alpha_power
    drive = 0.5 * (node.mobility_n * node.cox * width
                   / node.feature_size) \
        * vdd ** (2.0 - alpha) * (vdd - vth) ** alpha
    self_load = inverter_self_load(node, width)
    return 0.5 * (external_load + self_load) * vdd / drive


def stage_energy(node: TechnologyNode, width: float,
                 external_load: float) -> float:
    """Switching energy [J] of the stage: all capacitance at V_DD^2.

    Includes the stage's own input capacitance -- the part the
    *previous* stage pays for our size, which is exactly how
    oversizing propagates backwards through a path.
    """
    total = (external_load + inverter_self_load(node, width)
             + inverter_input_capacitance(node, width))
    return total * node.vdd ** 2


def size_for_delay(node: TechnologyNode, delay_target: float,
                   external_load: float,
                   vth: Optional[float] = None) -> SizingResult:
    """Find the minimum width meeting ``delay_target`` at ``vth``.

    Raises ValueError when the target is below the self-load-limited
    minimum achievable delay.
    """
    if delay_target <= 0:
        raise ModelDomainError("delay_target must be positive")
    vth = vth if vth is not None else node.vth
    w_min = node.feature_size
    w_max = 1e5 * node.feature_size

    def miss(width: float) -> float:
        return stage_delay(node, width, external_load, vth) - delay_target

    if miss(w_max) > 0:
        raise ModelDomainError(
            f"delay target {delay_target:.3e}s unreachable: self-load "
            f"limit is {stage_delay(node, w_max, external_load, vth):.3e}s")
    if miss(w_min) <= 0:
        width = w_min
    else:
        from scipy.optimize import brentq

        width = brentq(miss, w_min, w_max, xtol=1e-12)
    return SizingResult(
        width=width,
        delay=stage_delay(node, width, external_load, vth),
        energy=stage_energy(node, width, external_load),
        vth_assumed=vth,
    )


@dataclass(frozen=True)
class WorstCasePenalty:
    """Energy cost of designing for worst-case V_T on one node."""

    node_name: str
    sigma_vth: float
    nominal: SizingResult
    worst_case: SizingResult

    @property
    def width_ratio(self) -> float:
        """Oversizing factor W_wc / W_nominal."""
        return self.worst_case.width / self.nominal.width

    @property
    def energy_penalty(self) -> float:
        """Energy overhead E_wc / E_nominal (>= 1)."""
        return self.worst_case.energy / self.nominal.energy


def worst_case_penalty(node: TechnologyNode,
                       sigma_vth: Optional[float] = None,
                       n_sigma: float = 3.0,
                       delay_margin: float = 1.3,
                       external_load: Optional[float] = None
                       ) -> WorstCasePenalty:
    """Quantify section 3.1 for one node.

    The delay target is ``delay_margin`` x the nominal-V_T delay of a
    reference-sized stage (a realistic spec with some slack); the
    stage is then sized once assuming nominal V_T and once assuming
    V_T + n_sigma*sigma, and the energies compared.

    ``sigma_vth`` defaults to the node's minimum-device mismatch sigma
    -- the intra-die effect the paper calls "hard to deal with".
    """
    if sigma_vth is None:
        sigma_vth = node.sigma_vt_min_device
    ref_width = 4.0 * node.feature_size
    if external_load is None:
        external_load = 8.0 * inverter_input_capacitance(
            node, 2.0 * node.feature_size)
    target = delay_margin * stage_delay(node, ref_width, external_load)
    nominal = size_for_delay(node, target, external_load)
    worst = size_for_delay(node, target, external_load,
                           vth=node.vth + n_sigma * sigma_vth)
    return WorstCasePenalty(
        node_name=node.name,
        sigma_vth=sigma_vth,
        nominal=nominal,
        worst_case=worst,
    )


def worst_case_energy_trend(nodes: Sequence[TechnologyNode],
                            n_sigma: float = 3.0,
                            delay_margin: float = 1.3
                            ) -> List[Dict[str, float]]:
    """Tab C: oversizing factor and energy penalty per node."""
    rows = []
    for node in nodes:
        penalty = worst_case_penalty(node, n_sigma=n_sigma,
                                     delay_margin=delay_margin)
        rows.append({
            "node": node.name,
            "sigma_vth_mV": penalty.sigma_vth * 1e3,
            "sigma_over_overdrive": penalty.sigma_vth / node.overdrive,
            "width_ratio": penalty.width_ratio,
            "energy_penalty_pct": (penalty.energy_penalty - 1.0) * 100.0,
        })
    return rows
