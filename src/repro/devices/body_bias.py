"""Body-bias (VTCMOS) modelling -- section 3.2 of the paper.

VTCMOS tunes V_T through the body terminal: reverse body bias raises
V_T (cutting subthreshold leakage in standby), forward bias lowers it
(restoring speed when active).  The paper's key observation is that
**the bulk factor shrinks with scaling**, so the technique loses
effectiveness at nanometre nodes.  :func:`body_bias_effectiveness`
quantifies exactly that claim (benchmark ``test_tab_body_bias``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..core.constants import (EPSILON_0, EPSILON_SI, ELECTRON_CHARGE,
                              thermal_voltage)
from ..technology.node import TechnologyNode
from .leakage import device_leakage
from ..robust.errors import ModelDomainError


def body_effect_gamma(node: TechnologyNode) -> float:
    """Physical body-effect coefficient gamma [sqrt(V)].

    gamma = sqrt(2*q*eps_si*N_A) / C_ox.  Together with the
    square-root law V_T(V_SB) = V_T0 + gamma*(sqrt(2phi_F+V_SB) -
    sqrt(2phi_F)) this gives the *large-signal* body effect; the node's
    ``body_factor`` is its small-signal linearization at V_SB = 0.
    """
    eps_si = EPSILON_0 * EPSILON_SI
    return math.sqrt(2.0 * ELECTRON_CHARGE * eps_si * node.channel_doping) \
        / node.cox


def vth_with_body_bias(node: TechnologyNode, vsb: float,
                       use_physical: bool = False) -> float:
    """Threshold voltage [V] under source-body voltage ``vsb``.

    Positive ``vsb`` = reverse bias for NMOS (raises V_T).  With
    ``use_physical`` the square-root gamma law is used; otherwise the
    node's linear ``body_factor`` (the paper's framing).
    """
    if use_physical:
        gamma = body_effect_gamma(node)
        phi = 2.0 * node.fermi_potential
        if phi + vsb < 0:
            raise ModelDomainError(
                f"forward bias beyond junction turn-on: vsb={vsb}")
        return node.vth + gamma * (math.sqrt(phi + vsb) - math.sqrt(phi))
    return node.vth + node.body_factor * vsb


@dataclass(frozen=True)
class BodyBiasResult:
    """Effect of one reverse-body-bias setting on one node."""

    node_name: str
    feature_size_nm: float
    body_factor: float
    vsb: float
    delta_vth: float
    leakage_off: float          # A, no body bias
    leakage_biased: float       # A, with reverse bias
    leakage_reduction: float    # ratio >= 1


def body_bias_effectiveness(nodes: Sequence[TechnologyNode],
                            vsb: float = 0.5,
                            width: float = None) -> List[BodyBiasResult]:
    """Quantify VTCMOS standby-leakage savings per node.

    Returns one row per node.  The paper's claim: ``delta_vth`` (and
    hence the leakage-reduction ratio) shrinks monotonically as the
    nodes scale, limiting VTCMOS below ~90 nm.
    """
    if vsb < 0:
        raise ModelDomainError("vsb must be >= 0 (reverse bias)")
    results = []
    for node in nodes:
        w = width if width is not None else 2.0 * node.feature_size
        delta_vth = node.body_factor * vsb
        base = device_leakage(node, w).subthreshold
        biased = device_leakage(node, w, vth_offset=delta_vth).subthreshold
        results.append(BodyBiasResult(
            node_name=node.name,
            feature_size_nm=node.feature_size * 1e9,
            body_factor=node.body_factor,
            vsb=vsb,
            delta_vth=delta_vth,
            leakage_off=base,
            leakage_biased=biased,
            leakage_reduction=base / biased if biased > 0 else math.inf,
        ))
    return results


def required_vsb_for_reduction(node: TechnologyNode,
                               reduction: float) -> float:
    """Reverse body bias [V] needed for a given leakage-reduction ratio.

    Inverts eq. 1: delta_VT = n*phi_t*ln(reduction), then
    V_SB = delta_VT / body_factor.  Diverges as the body factor
    vanishes -- the quantitative form of the paper's warning.
    """
    if reduction <= 1.0:
        raise ModelDomainError("reduction must exceed 1")
    phi_t = thermal_voltage(node.temperature)
    delta_vth = node.subthreshold_n * phi_t * math.log(reduction)
    return delta_vth / node.body_factor
