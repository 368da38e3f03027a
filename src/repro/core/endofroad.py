"""The "end of the road?" analysis: the paper's central question.

Combines the library's models into per-node scorecards that quantify
each of the paper's warning signs, and a composite figure of merit
showing where the *net* benefit of moving to the next node flips:

* digital: intrinsic speedup vs the leakage-power fraction and the
  worst-case-sizing energy penalty (sections 2-3);
* interconnect: the shrinking synchronous region (section 3.3);
* analog: flat power at fixed spec, vanishing headroom (section 4.1);
* mitigation costs: VTCMOS effectiveness loss (section 3.2).

This is the paper's qualitative argument made executable: scaling
keeps paying for raw delay, but an increasing share of the gain is
clawed back by leakage, margining and analog/interconnect overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode


@dataclass(frozen=True)
class NodeScorecard:
    """All 'end of the road' indicators for one node.

    Each field is defined so that *larger is worse*, except
    ``gate_speed`` (larger is better).
    """

    node_name: str
    feature_size_nm: float
    gate_speed: float               # 1 / FO4 delay [1/s]
    leakage_fraction: float         # static share of total power
    worst_case_energy_penalty: float  # relative energy overhead
    sigma_vt_over_overdrive: float  # variability pressure
    analog_power_rel: float         # vs the first node, fixed spec
    sync_region_mm: float           # max synchronous wire at 1 GHz
    body_bias_delta_vth: float      # V_T shift per 0.5 V VBS [V]

    def composite_benefit(self, reference: "NodeScorecard") -> float:
        """Net benefit of this node vs ``reference`` (> 1 = still
        worth scaling).

        Speedup, degraded by the growth in leakage fraction, margining
        energy and analog power.  The specific weighting is documented
        rather than principled -- the paper itself argues trends, not
        a closed-form metric.
        """
        speedup = self.gate_speed / reference.gate_speed
        leakage_tax = (1.0 + self.leakage_fraction) \
            / (1.0 + reference.leakage_fraction)
        margin_tax = self.worst_case_energy_penalty \
            / reference.worst_case_energy_penalty
        analog_tax = max(self.analog_power_rel
                         / max(reference.analog_power_rel, 1e-12), 1e-12)
        return speedup / (leakage_tax * margin_tax * analog_tax ** 0.5)


def node_scorecard(node: TechnologyNode,
                   reference_analog_power: Optional[float] = None,
                   operating_temperature: float = 358.0
                   ) -> NodeScorecard:
    """Evaluate every indicator for one node.

    ``reference_analog_power`` normalizes the analog column (pass the
    first node's absolute power); defaults to self-normalized (1.0).
    """
    from ..digital.delay import fo4_delay_model
    from ..digital.energy import leakage_fraction_trend
    from ..digital.sizing import worst_case_penalty
    from ..analog.supply_scaling import mismatch_limited_power
    from ..interconnect.clocktree import max_wire_length_for_skew

    fo4 = fo4_delay_model(node).delay()
    hot = node.at_temperature(operating_temperature)
    leakage = leakage_fraction_trend([hot], frequency=1e9)[0]
    penalty = worst_case_penalty(node)
    analog = mismatch_limited_power(node, speed=100e6, n_bits=10.0)
    if reference_analog_power is None:
        reference_analog_power = analog
    return NodeScorecard(
        node_name=node.name,
        feature_size_nm=node.feature_size * 1e9,
        gate_speed=1.0 / fo4,
        leakage_fraction=leakage["leakage_fraction"],
        worst_case_energy_penalty=penalty.energy_penalty,
        sigma_vt_over_overdrive=node.sigma_vt_min_device / node.overdrive,
        analog_power_rel=analog / reference_analog_power,
        sync_region_mm=max_wire_length_for_skew(node, 1e9) * 1e3,
        body_bias_delta_vth=node.body_factor * 0.5,
    )


def end_of_road_table(nodes: Sequence[TechnologyNode],
                      operating_temperature: float = 358.0
                      ) -> List[Dict[str, float]]:
    """Scorecards plus generation-over-generation net benefit.

    ``benefit_vs_prev`` < 1 marks a transition where the taxes eat the
    whole speedup -- the quantitative "end of the road".
    """
    if not nodes:
        return []
    first_analog = None
    cards: List[NodeScorecard] = []
    for node in nodes:
        from ..analog.supply_scaling import mismatch_limited_power
        if first_analog is None:
            first_analog = mismatch_limited_power(
                node, speed=100e6, n_bits=10.0)
        cards.append(node_scorecard(
            node, reference_analog_power=first_analog,
            operating_temperature=operating_temperature))
    rows = []
    for index, card in enumerate(cards):
        row = {
            "node": card.node_name,
            "feature_size_nm": card.feature_size_nm,
            "fo4_ps": 1e12 / card.gate_speed,
            "leakage_fraction": card.leakage_fraction,
            "wc_energy_penalty": card.worst_case_energy_penalty,
            "sigma_vt_over_vov": card.sigma_vt_over_overdrive,
            "analog_power_rel": card.analog_power_rel,
            "sync_region_mm": card.sync_region_mm,
            "body_bias_mV": card.body_bias_delta_vth * 1e3,
        }
        if index > 0:
            row["benefit_vs_prev"] = card.composite_benefit(
                cards[index - 1])
        rows.append(row)
    return rows


def find_diminishing_node(nodes: Sequence[TechnologyNode],
                          threshold: float = 1.0) -> Optional[str]:
    """First node whose generation-over-generation benefit drops below
    ``threshold`` -- where the road (by this metric) ends."""
    table = end_of_road_table(nodes)
    for row in table[1:]:
        if row["benefit_vs_prev"] < threshold:
            return row["node"]
    return None
