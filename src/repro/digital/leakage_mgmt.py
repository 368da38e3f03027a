"""Leakage-aware design techniques (section 3.2 of the paper).

Implements the two technique classes the paper describes plus power
gating:

* **MTCMOS** (multi-threshold CMOS): assign a high-V_T cell variant to
  every gate with enough timing slack; leakage drops exponentially on
  those gates while the critical path keeps the fast low V_T.
* **VTCMOS** (variable-threshold CMOS): reverse body bias in standby.
  Its effectiveness is capped by the shrinking body factor -- the
  quantitative "end of the road" for this technique.
* **Power gating** (supply/ground switches): cut leaky blocks off when
  inactive, at an area/IR-drop cost; the paper notes MTCMOS "is
  usually combined with supply and/or ground switches".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..core.constants import thermal_voltage
from ..technology.node import TechnologyNode
from ..devices.body_bias import vth_with_body_bias
from ..devices.leakage import device_leakage
from .netlist import Netlist
from .timing import StaticTimingAnalyzer
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class MtcmosResult:
    """Outcome of a dual-V_T assignment."""

    n_gates: int
    n_high_vt: int
    leakage_before: float        # W
    leakage_after: float         # W
    delay_before: float          # s
    delay_after: float           # s

    @property
    def high_vt_fraction(self) -> float:
        """Fraction of gates moved to high V_T."""
        return self.n_high_vt / self.n_gates if self.n_gates else 0.0

    @property
    def leakage_reduction(self) -> float:
        """Leakage-power ratio before/after (>= 1)."""
        if self.leakage_after <= 0:
            return math.inf
        return self.leakage_before / self.leakage_after


def leakage_ratio_for_vth_delta(node: TechnologyNode,
                                delta_vth: float) -> float:
    """Subthreshold-leakage reduction of a +delta_vth cell (eq. 1)."""
    if delta_vth < 0:
        raise ModelDomainError("delta_vth must be non-negative")
    phi_t = thermal_voltage(node.temperature)
    return math.exp(delta_vth / (node.subthreshold_n * phi_t))


def assign_dual_vth(netlist: Netlist, delta_vth: float = 0.1,
                    slack_fraction: float = 0.05,
                    wire_cap_per_fanout: float = 0.5e-15) -> MtcmosResult:
    """Greedy MTCMOS assignment on ``netlist``.

    Gates are moved to the +``delta_vth`` variant in order of
    increasing criticality as long as the critical delay stays within
    ``(1 + slack_fraction)`` of the all-low-V_T baseline.  Uses arrival
    times as the criticality proxy and a final full STA to verify.

    Leakage accounting: the subthreshold component scales per gate by
    eq. 1; the gate-tunnelling component is V_T-independent and stays
    -- at the 65 nm node that un-scalable floor caps what *any*
    V_T-based technique can deliver.
    """
    analyzer = StaticTimingAnalyzer(
        netlist, wire_cap_per_fanout=wire_cap_per_fanout)
    baseline = analyzer.analyze()
    budget = baseline.critical_delay * (1.0 + slack_fraction)

    node = netlist.node
    per_gate_sub = {}
    gate_floor = 0.0
    for name, inst in netlist.instances.items():
        budget_leak = device_leakage(node, inst.cell.nmos_width)
        per_gate_sub[name] = budget_leak.subthreshold * node.vdd
        gate_floor += budget_leak.gate * node.vdd
    leakage_before = sum(per_gate_sub.values()) + gate_floor
    reduction = leakage_ratio_for_vth_delta(node, delta_vth)

    # Order gates by how late their output settles: the later, the more
    # critical; start flipping from the earliest (most slack).
    order = sorted(
        netlist.instances,
        key=lambda name: baseline.arrival_times.get(
            netlist.instances[name].output, 0.0))

    high_vt: Set[str] = set()
    offsets: Dict[str, float] = {}
    # Greedy with binary back-off: flip in chunks and verify by STA.
    chunk = max(len(order) // 8, 1)
    index = 0
    while index < len(order):
        candidate = order[index:index + chunk]
        for name in candidate:
            offsets[name] = delta_vth
        delay = StaticTimingAnalyzer(
            netlist, wire_cap_per_fanout=wire_cap_per_fanout,
            vth_offsets=offsets).analyze().critical_delay
        if delay <= budget:
            high_vt.update(candidate)
            index += chunk
        elif chunk > 1:
            for name in candidate:
                offsets.pop(name, None)
            chunk = max(chunk // 2, 1)
        else:
            offsets.pop(candidate[0], None)
            index += 1

    final_delay = StaticTimingAnalyzer(
        netlist, wire_cap_per_fanout=wire_cap_per_fanout,
        vth_offsets={name: delta_vth for name in high_vt}
    ).analyze().critical_delay
    leakage_after = gate_floor + sum(
        value / reduction if name in high_vt else value
        for name, value in per_gate_sub.items())
    return MtcmosResult(
        n_gates=netlist.gate_count(),
        n_high_vt=len(high_vt),
        leakage_before=leakage_before,
        leakage_after=leakage_after,
        delay_before=baseline.critical_delay,
        delay_after=final_delay,
    )


@dataclass(frozen=True)
class VtcmosResult:
    """Standby-leakage effect of reverse body bias on one design."""

    node_name: str
    vsb: float
    delta_vth: float
    leakage_active: float       # W (no bias)
    leakage_standby: float      # W (reverse biased)

    @property
    def reduction(self) -> float:
        """Active/standby leakage ratio."""
        if self.leakage_standby <= 0:
            return math.inf
        return self.leakage_active / self.leakage_standby


def apply_vtcmos_standby(netlist: Netlist, vsb: float = 0.5) -> VtcmosResult:
    """Reverse-bias the whole design in standby (VTCMOS).

    The achievable reduction shrinks with the node's body factor --
    run across nodes to reproduce the paper's 'limited effectiveness'
    claim (benchmark Tab D) -- and is additionally capped by the
    V_T-independent gate-tunnelling floor where that peaks (65 nm).
    """
    node = netlist.node
    delta = vth_with_body_bias(node, vsb) - node.vth
    active = sum(
        device_leakage(node, inst.cell.nmos_width).total * node.vdd
        for inst in netlist.instances.values())
    standby = sum(
        device_leakage(node, inst.cell.nmos_width,
                       vth_offset=delta).total * node.vdd
        for inst in netlist.instances.values())
    return VtcmosResult(
        node_name=node.name,
        vsb=vsb,
        delta_vth=delta,
        leakage_active=active,
        leakage_standby=standby,
    )


@dataclass(frozen=True)
class PowerGatingResult:
    """Supply-switch (sleep transistor) insertion outcome."""

    sleep_width: float          # total sleep-transistor width [m]
    area_overhead: float        # relative to the block's cell area
    ir_drop: float              # V across the sleep device when active
    leakage_on: float           # W, block active
    leakage_gated: float        # W, block asleep (switch leakage only)

    @property
    def reduction(self) -> float:
        """Sleep-mode leakage reduction factor."""
        if self.leakage_gated <= 0:
            return math.inf
        return self.leakage_on / self.leakage_gated


def insert_power_gating(netlist: Netlist,
                        max_ir_drop_fraction: float = 0.02,
                        switch_vth_delta: float = 0.15
                        ) -> PowerGatingResult:
    """Size a high-V_T footer switch for the block.

    The switch is sized so the worst-case simultaneous switching
    current drops at most ``max_ir_drop_fraction * V_DD`` across it;
    sleep leakage is the (high-V_T, stacked) switch's own.
    """
    if not 0 < max_ir_drop_fraction < 0.5:
        raise ModelDomainError("max_ir_drop_fraction must be in (0, 0.5)")
    node = netlist.node
    from ..devices.mosfet import Mosfet
    # Worst-case current: 5 % of gates draw their full drive current
    # simultaneously (a pessimistic clock-edge burst).
    peak_current = 0.0
    for inst in netlist.instances.values():
        device = Mosfet(node, width=inst.cell.nmos_width)
        peak_current += 0.05 * device.on_current()
    allowed_drop = max_ir_drop_fraction * node.vdd
    # Switch in its linear region: R ~ 1/(mu Cox (W/L) Vov).
    vov = node.vdd - (node.vth + switch_vth_delta)
    if vov <= 0:
        raise ModelDomainError("switch V_T too high for this supply")
    conductance_needed = peak_current / allowed_drop
    width = conductance_needed * node.feature_size / (
        node.mobility_n * node.cox * vov)
    leakage_on = netlist.total_leakage_power()
    switch_leak = device_leakage(
        node, width, vth_offset=switch_vth_delta).subthreshold * node.vdd
    # Stack effect of the series switch: one more decade of margin.
    switch_leak *= 0.1
    cell_width_total = sum(
        inst.cell.nmos_width * 3.0 for inst in netlist.instances.values())
    return PowerGatingResult(
        sleep_width=width,
        area_overhead=width / cell_width_total,
        ir_drop=allowed_drop,
        leakage_on=leakage_on,
        leakage_gated=switch_leak,
    )


def body_bias_trend_on_design(nodes: Sequence[TechnologyNode],
                              build_netlist, vsb: float = 0.5
                              ) -> List[Dict[str, float]]:
    """Tab D on whole designs: VTCMOS reduction per node.

    ``build_netlist`` is a callable node -> Netlist (same design
    re-targeted per node).
    """
    rows = []
    for node in nodes:
        result = apply_vtcmos_standby(build_netlist(node), vsb)
        rows.append({
            "node": node.name,
            "body_factor": node.body_factor,
            "delta_vth_mV": result.delta_vth * 1e3,
            "leakage_reduction": result.reduction,
        })
    return rows
