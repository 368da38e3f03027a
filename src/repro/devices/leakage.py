"""Leakage-current models: eqs. 1 and 2 of the paper.

Two static leakage mechanisms dominate at nanometre nodes:

* **Subthreshold leakage** (eq. 1) -- conduction at V_GS = 0, growing
  exponentially as V_T scales down, made worse by DIBL.  Present when
  the transistor is *off*.
* **Gate tunnelling leakage** (eq. 2) -- DC current through few-nm
  oxides.  Present when there is voltage across the gate, i.e. when
  the transistor is *on*.

Both are provided as standalone functions (direct transcriptions of
the paper's equations) and as per-device/per-gate aggregates used by
:mod:`repro.digital.energy` for the leakage-fraction analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..core.constants import thermal_voltage
from ..robust.validate import validated
from ..technology.node import TechnologyNode

ArrayLike = Union[float, np.ndarray]


@validated(_result_finite=True, i0="non-negative", vth="finite",
           n="positive", temperature="positive", vgs="finite")
def subthreshold_current(i0: ArrayLike, vth: ArrayLike,
                         n: float = 1.4,
                         temperature: float = 300.0,
                         vgs: ArrayLike = 0.0) -> ArrayLike:
    """Eq. 1: I_sub = I_0 * exp((V_GS - V_T) / (n*kT/q)).

    The paper writes the V_GS = 0 case, I_0*exp(-V_T/(n kT/q)); the
    optional ``vgs`` generalizes it for sweep plots (Fig. 1).

    Parameters
    ----------
    i0:
        Pre-exponential current [A] (proportional to W/L).
    vth:
        Threshold voltage [V], possibly already DIBL-reduced.
    n:
        Subthreshold ideality factor.
    temperature:
        Junction temperature [K].
    vgs:
        Gate-source voltage [V], default 0 (the off state).
    """
    phi_t = thermal_voltage(temperature)
    i0 = np.asarray(i0, dtype=float)
    result = i0 * np.exp((np.asarray(vgs, float) - np.asarray(vth, float))
                         / (n * phi_t))
    return result if result.ndim else float(result)


@validated(_result_finite=True, vth0="finite", dibl="finite",
           vds="finite")
def dibl_effective_vth(vth0: ArrayLike, dibl: float,
                       vds: ArrayLike) -> ArrayLike:
    """Equivalent V_DS-dependent V_T decrease (section 2.1, Fig. 1).

    V_T,eff = V_T0 - eta * V_DS with eta the DIBL coefficient.
    """
    result = np.asarray(vth0, float) - dibl * np.asarray(vds, float)
    return result if np.ndim(result) else float(result)


@validated(_result_finite=True, width="non-negative", vgb="finite",
           tox="positive", k_fit="non-negative",
           alpha_fit="non-negative", length="positive")
def gate_leakage_current(width: ArrayLike, vgb: ArrayLike, tox: float,
                         k_fit: float, alpha_fit: float,
                         length: ArrayLike = None) -> ArrayLike:
    """Eq. 2: I_gate = K * W * (V_gb / t_ox)^2 * exp(-alpha * t_ox / V_gb).

    Parameters
    ----------
    width:
        Gate width [m].  If ``length`` is given, K is interpreted per
        unit area and the current scales with W*L instead of W alone
        (the per-area form used by the built-in node library).
    vgb:
        Gate-to-bulk voltage [V].
    tox:
        Oxide thickness [m].
    k_fit / alpha_fit:
        The paper's fit factors K and alpha.
    """
    width = np.asarray(width, dtype=float)
    vgb = np.asarray(vgb, dtype=float)
    geometry = width if length is None else width * np.asarray(length, float)
    safe_vgb = np.maximum(np.abs(vgb), 1e-12)
    result = (k_fit * geometry * (safe_vgb / tox) ** 2
              * np.exp(-alpha_fit * tox / safe_vgb))
    result = np.where(np.abs(vgb) < 1e-12, 0.0, result)
    return result if result.ndim else float(result)


@dataclass(frozen=True)
class LeakageBudget:
    """Static leakage of one device or gate, split by mechanism [A]."""

    subthreshold: float
    gate: float

    @property
    def total(self) -> float:
        """Total static leakage current [A]."""
        return self.subthreshold + self.gate

    def power(self, vdd: float) -> float:
        """Static power [W] at supply ``vdd``."""
        return self.total * vdd


@validated(_result_finite=True, width="positive", length="positive",
           vds="finite", vbs="finite", vth_offset="finite")
def device_leakage(node: TechnologyNode, width: float,
                   length: float = None,
                   vds: float = None,
                   vbs: float = 0.0,
                   vth_offset: float = 0.0) -> LeakageBudget:
    """Leakage budget of a single transistor in the off (subthreshold)
    and on (gate tunnelling) states.

    Notes
    -----
    The two mechanisms never coexist in the same device state (the
    paper's section 2.2 remark): subthreshold leaks when off, the gate
    leaks when on.  For a static CMOS gate roughly half the devices
    are in each state, which is how :func:`gate_leakage_per_gate`
    combines them.
    """
    if length is None:
        length = node.feature_size
    if vds is None:
        vds = node.vdd
    phi_t = thermal_voltage(node.temperature)
    vth_eff = dibl_effective_vth(
        node.vth + vth_offset - node.body_factor * vbs, node.dibl, vds)
    i0 = node.i0_per_width * width * node.feature_size / length
    isub = float(subthreshold_current(
        i0, vth_eff, n=node.subthreshold_n, temperature=node.temperature))
    igate = float(gate_leakage_current(
        width, node.vdd, node.tox, node.gate_leak_k, node.gate_leak_alpha,
        length=length))
    return LeakageBudget(subthreshold=isub, gate=igate)


@validated(_result_finite=True, nmos_width="positive",
           pmos_width="positive", fanin="count")
def gate_leakage_per_gate(node: TechnologyNode,
                          nmos_width: float = None,
                          pmos_width: float = None,
                          fanin: int = 1) -> LeakageBudget:
    """Average static leakage of a static CMOS gate.

    Assumes half the input states leave each stack off (subthreshold
    leaking) and the complementary devices on (gate leaking); series
    stacks leak less (the stack effect), approximated as 1/fanin.
    """
    if nmos_width is None:
        nmos_width = 2.0 * node.feature_size
    if pmos_width is None:
        pmos_width = 2.0 * nmos_width
    budgets = [device_leakage(node, width) for width in
               [nmos_width] * fanin + [pmos_width] * fanin]
    isub = 0.5 * sum(b.subthreshold for b in budgets) / fanin
    igate = 0.5 * sum(b.gate for b in budgets)
    return LeakageBudget(subthreshold=isub, gate=igate)
