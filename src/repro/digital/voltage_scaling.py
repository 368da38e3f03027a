"""V_DD / V_T co-optimization: the energy-delay trade-off of section 3.

The paper's section 3.1/3.2 argument in one model: dynamic energy
falls with V_DD^2, but lowering V_DD (or raising V_T) slows the gate,
and slower gates *integrate more leakage per operation* -- so the
energy per operation has a minimum in the (V_DD, V_T) plane, and that
minimum moves as leakage grows with scaling.  This is the quantitative
backdrop of "there is a point where further scaling of the intrinsic
MOS device is not really meaningful anymore".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.constants import thermal_voltage
from ..technology.node import TechnologyNode
from ..devices.capacitance import (inverter_input_capacitance,
                                   inverter_self_load)
from ..devices.leakage import device_leakage
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class OperatingPoint:
    """One (V_DD, V_T) operating point of a logic pipeline."""

    vdd: float
    vth: float
    delay_per_stage: float     # s
    dynamic_energy: float      # J per operation
    leakage_energy: float      # J per operation
    node_name: str = ""

    @property
    def total_energy(self) -> float:
        """Energy per operation [J]."""
        return self.dynamic_energy + self.leakage_energy

    @property
    def leakage_share(self) -> float:
        """Leakage fraction of the per-operation energy."""
        total = self.total_energy
        return self.leakage_energy / total if total > 0 else 0.0


class EnergyDelayModel:
    """Per-operation energy/delay of a logic pipeline vs (V_DD, V_T).

    Parameters
    ----------
    node:
        Technology node (sets capacitances, mobility, leakage I_0).
    logic_depth:
        Gates per pipeline stage (delay and leakage integrate over
        this depth).
    activity:
        Switching activity: fraction of the pipeline's capacitance
        switched per operation.
    width:
        NMOS width of the reference gate [m].
    """

    def __init__(self, node: TechnologyNode, logic_depth: int = 30,
                 activity: float = 0.2, width: Optional[float] = None):
        if logic_depth < 1:
            raise ModelDomainError("logic_depth must be >= 1")
        if not 0 < activity <= 1:
            raise ModelDomainError("activity must be in (0, 1]")
        self.node = node
        self.logic_depth = logic_depth
        self.activity = activity
        self.width = width if width is not None \
            else 2.0 * node.feature_size
        self._load = (4.0 * inverter_input_capacitance(node, self.width)
                      + inverter_self_load(node, self.width))

    def gate_delay(self, vdd: float, vth: float) -> float:
        """Alpha-power gate delay [s] at the operating point."""
        if vdd <= 0:
            raise ModelDomainError("vdd must be positive")
        if vdd <= vth + 0.05:
            return math.inf   # no usable overdrive
        node = self.node
        alpha = node.alpha_power
        drive = 0.5 * (node.mobility_n * node.cox * self.width
                       / node.feature_size) \
            * vdd ** (2.0 - alpha) * (vdd - vth) ** alpha
        return 0.5 * self._load * vdd / drive

    def evaluate(self, vdd: float, vth: float) -> OperatingPoint:
        """Energy and delay of one operation at (V_DD, V_T)."""
        delay = self.gate_delay(vdd, vth)
        stage_delay = self.logic_depth * delay
        dynamic = (self.activity * self.logic_depth
                   * self._load * vdd ** 2)
        if math.isinf(stage_delay):
            leak_energy = math.inf
        else:
            vth_offset = vth - self.node.vth
            leak_current = device_leakage(
                self.node, 3.0 * self.width,
                vds=vdd, vth_offset=vth_offset).subthreshold
            leak_energy = (self.logic_depth * leak_current
                           * vdd * stage_delay)
        return OperatingPoint(
            vdd=vdd, vth=vth,
            delay_per_stage=stage_delay,
            dynamic_energy=dynamic,
            leakage_energy=leak_energy,
            node_name=self.node.name,
        )

    def sweep(self, vdd_values: Sequence[float],
              vth_values: Sequence[float]) -> List[OperatingPoint]:
        """Grid sweep of the (V_DD, V_T) plane."""
        return [self.evaluate(vdd, vth)
                for vdd in vdd_values for vth in vth_values]

    def minimum_energy_point(self,
                             delay_limit: Optional[float] = None,
                             n_grid: int = 40) -> OperatingPoint:
        """The energy-optimal (V_DD, V_T) point.

        ``delay_limit`` [s] constrains the per-stage delay (no limit:
        the unconstrained minimum-energy point, typically deep in
        near-threshold territory).
        """
        node = self.node
        vdds = np.linspace(0.3 * node.vdd, 1.2 * node.vdd, n_grid)
        vths = np.linspace(max(0.5 * node.vth, 0.05),
                           min(2.0 * node.vth, 0.9 * node.vdd), n_grid)
        best: Optional[OperatingPoint] = None
        for vdd in vdds:
            for vth in vths:
                if vth >= vdd - 0.05:
                    continue
                point = self.evaluate(float(vdd), float(vth))
                if delay_limit is not None \
                        and point.delay_per_stage > delay_limit:
                    continue
                if math.isinf(point.total_energy):
                    continue
                if best is None or point.total_energy \
                        < best.total_energy:
                    best = point
        if best is None:
            raise ModelDomainError("no feasible operating point in range "
                             "(delay_limit too tight?)")
        return best


def minimum_energy_trend(nodes: Sequence[TechnologyNode],
                         logic_depth: int = 30,
                         relative_delay_limit: Optional[float] = 3.0
                         ) -> List[Dict[str, float]]:
    """Minimum-energy operating point per node.

    ``relative_delay_limit`` bounds the stage delay to that multiple
    of the nominal-point delay (None = unconstrained).  The paper's
    warning shows up as the leakage share at the optimum growing node
    over node: leakage eats the energy benefit of scaling V_DD down.
    """
    rows = []
    for node in nodes:
        model = EnergyDelayModel(node, logic_depth=logic_depth)
        nominal = model.evaluate(node.vdd, node.vth)
        limit = (relative_delay_limit * nominal.delay_per_stage
                 if relative_delay_limit is not None else None)
        best = model.minimum_energy_point(delay_limit=limit)
        rows.append({
            "node": node.name,
            "nominal_energy_fJ": nominal.total_energy * 1e15,
            "optimal_vdd_V": best.vdd,
            "optimal_vth_V": best.vth,
            "optimal_energy_fJ": best.total_energy * 1e15,
            "energy_saving": 1.0 - best.total_energy
            / nominal.total_energy,
            "leakage_share_at_optimum": best.leakage_share,
        })
    return rows
