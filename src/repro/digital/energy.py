"""Energy and power accounting: dynamic, short-circuit and leakage.

Supports the paper's two headline digital-power claims:

* the **leakage fraction** of total power grows with scaling until it
  rivals dynamic power near the 65 nm node (sections 2.1-2.2,
  benchmark Tab B), and
* dynamic energy is C*V_DD^2, *independent of V_T* -- the reason
  worst-case oversizing for V_T variation costs real energy
  (section 3.1, see :mod:`repro.digital.sizing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode
from ..devices.leakage import gate_leakage_per_gate
from ..robust.errors import ModelDomainError
from ..robust.validate import check_count, check_positive


@dataclass(frozen=True)
class PowerReport:
    """Power breakdown of one design at one operating point [W]."""

    dynamic: float
    short_circuit: float
    subthreshold_leakage: float
    gate_leakage: float

    @property
    def leakage(self) -> float:
        """Total static power [W]."""
        return self.subthreshold_leakage + self.gate_leakage

    @property
    def total(self) -> float:
        """Total power [W]."""
        return self.dynamic + self.short_circuit + self.leakage

    @property
    def leakage_fraction(self) -> float:
        """Static share of total power."""
        if self.total <= 0:
            return 0.0
        return self.leakage / self.total


def analytic_power_estimate(node: TechnologyNode, n_gates: int,
                            frequency: float, activity: float = 0.1,
                            avg_load: Optional[float] = None
                            ) -> PowerReport:
    """Spreadsheet-style power estimate without simulation.

    P_dyn = a * n * C * V^2 * f; leakage from the average library gate.
    This is what the leakage-fraction trend (Tab B) sweeps across
    nodes.
    """
    n_gates = check_count("n_gates", n_gates)
    check_positive("frequency", frequency)
    if not 0 <= activity <= 1:
        raise ModelDomainError("activity must be in [0, 1]")
    from ..devices.capacitance import inverter_input_capacitance
    width = 2.0 * node.feature_size
    if avg_load is None:
        avg_load = 3.0 * inverter_input_capacitance(node, width)
    dynamic = activity * n_gates * avg_load * node.vdd ** 2 * frequency
    budget = gate_leakage_per_gate(node)
    return PowerReport(
        dynamic=dynamic,
        short_circuit=0.1 * dynamic,
        subthreshold_leakage=n_gates * budget.subthreshold * node.vdd,
        gate_leakage=n_gates * budget.gate * node.vdd,
    )


def leakage_fraction_trend(nodes: Sequence[TechnologyNode],
                           n_gates: int = 1_000_000,
                           activity: float = 0.1,
                           frequency: Optional[float] = None
                           ) -> List[Dict[str, float]]:
    """Tab B: leakage fraction of total power per node.

    ``frequency`` defaults to a fixed fraction of each node's
    achievable FO4-based clock (so designs speed up as they scale,
    the realistic scenario).
    """
    from .delay import fo4_delay_model
    rows = []
    for node in nodes:
        if frequency is None:
            fo4 = fo4_delay_model(node).delay()
            f_clk = 1.0 / (30.0 * fo4)  # ~30 FO4 pipelines
        else:
            f_clk = frequency
        report = analytic_power_estimate(node, n_gates, f_clk, activity)
        rows.append({
            "node": node.name,
            "f_clk_GHz": f_clk / 1e9,
            "dynamic_mW": report.dynamic * 1e3,
            "subthreshold_mW": report.subthreshold_leakage * 1e3,
            "gate_leak_mW": report.gate_leakage * 1e3,
            "leakage_fraction": report.leakage_fraction,
        })
    return rows
