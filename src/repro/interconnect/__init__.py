"""Interconnect analysis: RC wires, Elmore trees, repeaters, clock skew."""

from .wire import (
    WireGeometry,
    capacitance_per_length,
    resistance_per_length,
    wire_delay,
    wire_energy,
)
from .elmore import (
    RCNode,
    RCTree,
)
from .repeaters import (
    DriverModel,
    RepeaterSolution,
    insert_repeaters,
    optimal_repeater_count,
    optimal_repeater_size,
)
from .clocktree import (
    HTreeReport,
    build_h_tree,
    h_tree_report,
    max_wire_length_for_skew,
    skew_budget,
    skew_length_sweep,
    synchronous_region_trend,
)
from .bus import (
    BusTiming,
    bus_timing,
    coupling_ratio,
    crosstalk_delay_trend,
    miller_factor,
    pattern_delay,
    shielding_cost,
)
from .inductance import (
    MU_0,
    RlcCharacter,
    inductance_relevance_trend,
    inductive_crosstalk_fraction,
    mutual_inductance_per_length,
    rlc_character,
    self_inductance_per_length,
)
from .trends import (
    delay_trend,
    global_wire_delay,
    intrinsic_gate_delay,
    local_wire_delay,
    power_fraction_trend,
)

__all__ = [
    "WireGeometry", "capacitance_per_length", "resistance_per_length",
    "wire_delay", "wire_energy",
    "RCNode", "RCTree", "DriverModel", "RepeaterSolution",
    "insert_repeaters", "optimal_repeater_count", "optimal_repeater_size",
    "HTreeReport", "build_h_tree", "h_tree_report",
    "max_wire_length_for_skew", "skew_budget", "skew_length_sweep",
    "synchronous_region_trend",
    "BusTiming", "bus_timing", "coupling_ratio",
    "crosstalk_delay_trend", "miller_factor", "pattern_delay",
    "shielding_cost",
    "MU_0", "RlcCharacter", "inductance_relevance_trend",
    "inductive_crosstalk_fraction", "mutual_inductance_per_length",
    "rlc_character", "self_inductance_per_length",
    "delay_trend", "global_wire_delay", "intrinsic_gate_delay",
    "local_wire_delay", "power_fraction_trend",
]
