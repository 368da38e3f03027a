"""Classical CMOS scaling scenarios (section 1 of the paper).

The paper's introduction recalls the *full scaling* scenario: every
geometry and voltage parameter divides by the scale factor S, giving

* density increase of S^2,
* intrinsic gate delay decrease of 1/S,
* power per gate decrease of 1/S^2 (constant power density),
* slowly degrading (but acceptable) noise margins.

This module implements full scaling, constant-voltage scaling and the
*general* scenario (separate geometry and voltage factors) and derives
those first-order consequences, which benchmark ``test_tab_scaling_laws``
regenerates as the paper's implicit "Table A".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from ..technology.node import TechnologyNode
from ..robust.errors import ModelDomainError


class ScalingScenario(enum.Enum):
    """The three textbook scaling disciplines."""

    #: Geometry and voltages scale by 1/S (Dennard scaling).
    FULL = "full"
    #: Geometry scales by 1/S, voltages stay constant.
    CONSTANT_VOLTAGE = "constant-voltage"
    #: Geometry scales by 1/S, voltages by 1/U with U independent of S.
    GENERAL = "general"


@dataclass(frozen=True)
class ScalingConsequences:
    """First-order consequences of scaling by S (and voltage factor U).

    Every field is a *multiplicative factor* relative to the unscaled
    design; e.g. ``density = 4.0`` means four times denser.
    """

    scenario: ScalingScenario
    s: float
    u: float
    density: float
    gate_delay: float
    power_per_gate: float
    power_density: float
    energy_per_switch: float
    electric_field: float
    current: float
    capacitance: float

    def as_dict(self) -> Dict[str, float]:
        """Return the factors keyed by name (for table generation)."""
        return {
            "density": self.density,
            "gate_delay": self.gate_delay,
            "power_per_gate": self.power_per_gate,
            "power_density": self.power_density,
            "energy_per_switch": self.energy_per_switch,
            "electric_field": self.electric_field,
            "current": self.current,
            "capacitance": self.capacitance,
        }


def scale(s: float, scenario: ScalingScenario = ScalingScenario.FULL,
          u: float = None) -> ScalingConsequences:
    """Derive the first-order scaling consequences for factor ``s`` > 0.

    Parameters
    ----------
    s:
        Geometry scale factor (s > 1 shrinks the design).
    scenario:
        Which scaling discipline to apply.
    u:
        Voltage scale factor for :data:`ScalingScenario.GENERAL`;
        ignored (and derived) for the other scenarios.

    Returns
    -------
    ScalingConsequences
        Multiplicative factors relative to the unscaled design.

    Notes
    -----
    Standard derivation (Rabaey et al., [2] in the paper).  With
    geometry scaled by 1/s and voltage by 1/u: capacitance C = Cox*W*L
    scales by 1/s, long-channel saturation current I ~ (W/L)*Cox*V^2
    scales by s/u^2, so delay C*V/I, power V*I, density s^2 and energy
    C*V^2 follow.  Full scaling (u = s) recovers the paper's headline
    numbers: density s^2, delay 1/s, power 1/s^2 at constant power
    density.
    """
    if s <= 0:
        raise ModelDomainError(f"scale factor must be positive, got {s}")
    if scenario is ScalingScenario.FULL:
        u = s
    elif scenario is ScalingScenario.CONSTANT_VOLTAGE:
        u = 1.0
    else:
        if u is None or u <= 0:
            raise ModelDomainError(
                "general scaling requires a positive voltage factor u")

    # Factor convention: new_value = old_value * factor.
    capacitance = 1.0 / s                   # C = Cox*W*L, Cox ~ s, area ~ 1/s^2
    voltage = 1.0 / u
    # Saturation current I ~ (W/L) * Cox * (V - VT)^2 -> s * (1/u^2) ... the
    # W/L ratio is scale-invariant, Cox scales by s, V^2 by 1/u^2:
    current = s / u ** 2
    gate_delay = capacitance * voltage / current      # C*V/I
    power_per_gate = voltage * current                # V*I (dynamic, fixed f)
    density = s ** 2
    power_density = power_per_gate * density
    energy_per_switch = capacitance * voltage ** 2    # C*V^2
    electric_field = s / u                            # V / geometry

    return ScalingConsequences(
        scenario=scenario, s=s, u=u,
        density=density,
        gate_delay=gate_delay,
        power_per_gate=power_per_gate,
        power_density=power_density,
        energy_per_switch=energy_per_switch,
        electric_field=electric_field,
        current=current,
        capacitance=capacitance,
    )


def scaling_table(s_values: List[float],
                  scenario: ScalingScenario = ScalingScenario.FULL,
                  u: float = None) -> List[Dict[str, float]]:
    """Tabulate :func:`scale` over several scale factors.

    Returns one row per ``s``, each row a dict with ``s`` plus the
    consequence factors.  This regenerates the paper's section-1
    full-scaling claims (density S^2, delay 1/S, power 1/S^2).
    """
    rows = []
    for s in s_values:
        consequences = scale(s, scenario, u)
        row = {"s": s}
        row.update(consequences.as_dict())
        rows.append(row)
    return rows


def node_scale_factor(from_node: TechnologyNode,
                      to_node: TechnologyNode) -> float:
    """Geometry scale factor S between two technology nodes (> 1 if
    ``to_node`` is smaller)."""
    return from_node.feature_size / to_node.feature_size


def voltage_scale_factor(from_node: TechnologyNode,
                         to_node: TechnologyNode) -> float:
    """Supply-voltage scale factor U between two nodes."""
    return from_node.vdd / to_node.vdd


def effective_scenario(from_node: TechnologyNode,
                       to_node: TechnologyNode,
                       tolerance: float = 0.15) -> ScalingScenario:
    """Classify which textbook scenario a real node transition resembles.

    Real roadmaps scale voltage slower than geometry (the deviation the
    paper builds its argument on); this helper quantifies that.
    """
    s = node_scale_factor(from_node, to_node)
    u = voltage_scale_factor(from_node, to_node)
    if abs(u - 1.0) <= tolerance * abs(s - 1.0):
        return ScalingScenario.CONSTANT_VOLTAGE
    if abs(u - s) <= tolerance * abs(s - 1.0):
        return ScalingScenario.FULL
    return ScalingScenario.GENERAL


def noise_margin_trend(nodes: List[TechnologyNode]) -> List[Dict[str, float]]:
    """First-order static noise margin of a CMOS inverter per node.

    NM = min(V_DD/2, (V_DD/2 + V_T)/2) in the symmetric approximation;
    the paper notes the margin decreases with scaling but stays
    acceptable.  Returns the margin [V] and the margin relative to V_DD.
    """
    rows = []
    for node in nodes:
        margin = min(node.vdd / 2.0, (node.vdd / 2.0 + node.vth) / 2.0)
        rows.append({
            "node": node.name,
            "feature_size_nm": node.feature_size * 1e9,
            "noise_margin_V": margin,
            "noise_margin_rel": margin / node.vdd,
        })
    return rows
