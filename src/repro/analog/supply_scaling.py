"""Analog power under supply-voltage scaling: eq. 5 and Fig. 7.

The paper's section-4.1 punchline: for *fixed speed and fixed
accuracy*, the power ratio between two technology generations is

    P1/P2 = (1/m) * (t_ox1 / t_ox2)                          (eq. 5)

with m = V_DD1/V_DD2 the supply ratio.  Matching improves with thinner
oxide (A_VT ~ t_ox), which alone would *reduce* power -- but the
shrinking supply shrinks the signal swing quadratically, eating the
gain.  Since V_DD and t_ox scale at nearly the same rate, P2 ~ P1:
analog power stops scaling (the flat/red curve of Fig. 7), while
digital power keeps falling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode
from .tradeoff import accuracy_from_bits, mismatch_constant
from ..robust.errors import ModelDomainError
from ..robust.validate import validated


def power_ratio(node1: TechnologyNode, node2: TechnologyNode) -> float:
    """Eq. 5: P1/P2 for fixed speed and accuracy.

    A value < 1 means the newer (node2) circuit burns *more* power.
    """
    m = node1.vdd / node2.vdd
    return (1.0 / m) * (node1.tox / node2.tox)


def mismatch_limited_power(node: TechnologyNode, speed: float,
                           n_bits: float,
                           swing_fraction: float = 0.6) -> float:
    """Mismatch-limited power [W] with the supply-swing penalty.

    P = Speed * Accuracy^2 * 2*A_VT^2*C'ox / (eff * (swing*V_DD/V_ref)^2)
    normalized so the swing penalty tracks V_DD across nodes; this is
    the physical model behind eq. 5 (eq. 5 itself is its ratio form,
    using A_VT ~ t_ox).
    """
    if speed <= 0:
        raise ModelDomainError("speed must be positive")
    accuracy = accuracy_from_bits(n_bits)
    base = mismatch_constant(node, swing_fraction=1.0)
    swing = swing_fraction * node.vdd
    return speed * accuracy ** 2 * base / swing ** 2


def analog_power_trend(nodes: Sequence[TechnologyNode],
                       speed: float = 100e6,
                       n_bits: float = 10.0,
                       normalize_to: Optional[str] = None
                       ) -> List[Dict[str, float]]:
    """Fig. 7: analog power at fixed spec across nodes.

    Three series per node:

    * ``power_matching_only``: what the improved A_VT alone would give
      (the optimistic dashed trend in Fig. 7) -- normalized mismatch
      power at the *first node's* supply;
    * ``power_actual``: with the real supply's swing penalty (the red
      curve: flat to slightly rising below ~130 nm);
    * ``eq5_ratio``: eq. 5 evaluated against the first node.
    """
    if not nodes:
        return []
    first = nodes[0]
    rows = []
    for node in nodes:
        actual = mismatch_limited_power(node, speed, n_bits)
        matching_only = mismatch_limited_power(
            node.with_overrides(vdd=first.vdd,
                                vth=min(node.vth, 0.6 * first.vdd)),
            speed, n_bits)
        rows.append({
            "node": node.name,
            "feature_size_nm": node.feature_size * 1e9,
            "vdd_V": node.vdd,
            "tox_nm": node.tox * 1e9,
            "power_actual_mW": actual * 1e3,
            "power_matching_only_mW": matching_only * 1e3,
            "eq5_ratio_vs_first": power_ratio(first, node),
        })
    if normalize_to is not None:
        ref = next((r for r in rows if r["node"] == normalize_to), rows[0])
        scale_actual = ref["power_actual_mW"]
        scale_match = ref["power_matching_only_mW"]
        for row in rows:
            row["power_actual_rel"] = row["power_actual_mW"] / scale_actual
            row["power_matching_only_rel"] = (
                row["power_matching_only_mW"] / scale_match)
    return rows


def digital_power_trend(nodes: Sequence[TechnologyNode],
                        reference_gates: int = 10000,
                        frequency: float = 100e6
                        ) -> List[Dict[str, float]]:
    """The contrast curve for Fig. 7: digital power keeps falling.

    Same function implemented per node: C falls with geometry and V^2
    falls with supply.
    """
    from ..digital.energy import analytic_power_estimate
    rows = []
    first_power = None
    for node in nodes:
        report = analytic_power_estimate(node, reference_gates, frequency)
        if first_power is None:
            first_power = report.dynamic
        rows.append({
            "node": node.name,
            "digital_power_mW": report.dynamic * 1e3,
            "digital_power_rel": report.dynamic / first_power,
        })
    return rows


@validated(vdsat="positive")
def headroom_trend(nodes: Sequence[TechnologyNode],
                   vdsat: float = 0.15,
                   ) -> List[Dict[str, float]]:
    """Stacking headroom per node (section 4.1's circuit-technique
    casualty list).

    Counts how many V_DSAT + V_T levels fit in the supply: a useful
    cascode output stage needs ~2 V_T + 3 V_DSAT *plus* a worthwhile
    signal swing (taken as 20 % of V_DD) -- gone in the nanometre
    supplies.
    """
    rows = []
    for node in nodes:
        cascode_budget = (2.0 * node.vth + 3.0 * vdsat
                          + 0.2 * node.vdd)
        stack_levels = int(node.vdd // (node.vth + vdsat))
        rows.append({
            "node": node.name,
            "vdd_V": node.vdd,
            "cascode_possible": node.vdd > cascode_budget,
            "stackable_devices": stack_levels,
            "signal_swing_V": max(node.vdd - 2.0 * vdsat, 0.0),
            "swing_fraction": max(node.vdd - 2.0 * vdsat, 0.0) / node.vdd,
        })
    return rows
