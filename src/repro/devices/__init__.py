"""Device-level models: MOSFET I-V, leakage, capacitance, body bias."""

from .mosfet import DeviceType, Mosfet
from .leakage import (
    LeakageBudget,
    device_leakage,
    dibl_effective_vth,
    gate_leakage_current,
    gate_leakage_per_gate,
    subthreshold_current,
)
from .capacitance import (
    DeviceCapacitances,
    device_capacitances,
    inverter_input_capacitance,
    inverter_self_load,
    junction_capacitance,
    overlap_capacitance,
)
from .body_bias import (
    BodyBiasResult,
    body_bias_effectiveness,
    body_effect_gamma,
    required_vsb_for_reduction,
    vth_with_body_bias,
)
from .corners import (
    Corner,
    CornerSpec,
    InterDieSigmas,
    apply_corner,
    corner_spread_summary,
    worst_case_vth,
)

__all__ = [
    "DeviceType", "Mosfet",
    "LeakageBudget", "device_leakage", "dibl_effective_vth",
    "gate_leakage_current", "gate_leakage_per_gate", "subthreshold_current",
    "DeviceCapacitances", "device_capacitances",
    "inverter_input_capacitance", "inverter_self_load",
    "junction_capacitance", "overlap_capacitance",
    "BodyBiasResult", "body_bias_effectiveness", "body_effect_gamma",
    "required_vsb_for_reduction", "vth_with_body_bias",
    "Corner", "CornerSpec", "InterDieSigmas", "apply_corner",
    "corner_spread_summary",
    "worst_case_vth",
]
